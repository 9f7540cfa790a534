"""Exact linear algebra: ranks, kernels, determinants, solving."""
from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab._linalg import (P61, _echelon, det, kernel_basis, matmul, matvec, modp_rank, rank,
                           scaled_inverse, solve, transpose)

from _instances import identity

small_entries = st.integers(min_value=-9, max_value=9)
fraction_entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def small_matrix(max_side: int = 5, entries=small_entries):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@st.composite
def low_rank_matrix(draw, entries=small_entries):
    """A wide, tall or square product B C of inner size k below both sides."""
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    k = draw(st.integers(1, min(rows, cols) - 1))
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=k, max_size=k))
    return matmul(b, c)


# Mostly zero: a row whose pivot-column entry is zero is left stale by
# _echelon until it is next used, which dense input rarely exercises.
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), small_entries, fraction_entries)


@st.composite
def sparse_matrix(draw):
    """A square, wide, tall or low-rank matrix of mostly zero entries."""
    shape = draw(st.sampled_from(["square", "wide", "tall", "low-rank"]))
    if shape == "low-rank":
        return draw(low_rank_matrix(sparse_entries))
    a, b = sorted(draw(st.lists(st.integers(1, 7), min_size=2, max_size=2)))
    rows, cols = {"square": (b, b), "wide": (a, b + 1), "tall": (b + 1, a)}[shape]
    return draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@given(sparse_matrix())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_sympy_on_sparse_input(m):
    # Jordan mode: m / d is the reduced row echelon form.  Forward mode on
    # a square matrix: sign * d / scale is the determinant at full rank.
    expected = sympy.Matrix(m)
    reduced, pivots = expected.rref()
    em, got_pivots, d, _, _ = _echelon(m, True)
    assert tuple(got_pivots) == pivots
    assert sympy.Matrix(em) / d == reduced
    if len(m) == len(m[0]):
        _, got_pivots, d, sign, scale = _echelon(m, False)
        full = len(got_pivots) == len(m)
        assert (Fraction(sign * d, scale) if full else 0) == expected.det()


@given(st.one_of(sparse_matrix(), low_rank_matrix()), st.booleans())
@settings(max_examples=80, deadline=None)
def test_echelon_leaves_its_input_unchanged(m, jordan):
    # The tails of the rows are updated in place, on copies of the input.
    before = copy.deepcopy(m)
    _echelon(m, jordan)
    assert m == before


@given(st.one_of(sparse_matrix(), small_matrix(7), low_rank_matrix()))
@settings(max_examples=60, deadline=None)
def test_kernel_certificate_is_the_exact_rank_and_a_pivot_minor(m):
    # kernel_basis returns the basis with the rank and the last pivot d, which
    # is a nonzero minor of that size, so mod P61 it certifies modp_rank.
    _, r, d = kernel_basis(m)
    assert r == rank(m) and d != 0
    if d % P61:
        assert modp_rank(m) == r


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(m):
    assert rank(m) == sympy.Matrix(m).rank()


@given(st.one_of(small_matrix(), small_matrix(entries=fraction_entries),
                 low_rank_matrix(fraction_entries)))
@settings(max_examples=60, deadline=None)
def test_modp_rank_never_exceeds_exact_rank(m):
    # A single-prime rank is a one-sided certificate: it can only drop.
    assert modp_rank(m) <= rank(m)


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    cols = len(m[0])
    basis = kernel_basis(m)[0]
    assert len(basis) == cols - rank(m)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert matvec(m, v) == [0] * len(m)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_square_determinants_match_sympy(m):
    expected = sympy.Matrix(m).det()
    assert det(m) == Fraction(int(expected))
    assert isinstance(det(m), Fraction)


@given(st.one_of(small_matrix(entries=fraction_entries), small_matrix(7), low_rank_matrix()))
@settings(max_examples=80, deadline=None)
def test_rank_and_kernel_match_sympy_on_any_shape(m):
    # Rational, wide, tall and rank-deficient input: the kernel spans
    # sympy's nullspace and has one primitive vector per free column.
    expected = sympy.Matrix(m)
    assert rank(m) == expected.rank()
    basis = kernel_basis(m)[0]
    assert len(basis) == len(expected.nullspace())
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert sympy.gcd_list(v) == 1 and next(x for x in v if x) > 0
        assert expected * sympy.Matrix(v) == sympy.zeros(len(m), 1)


@given(st.one_of(sparse_matrix(), small_matrix(7), low_rank_matrix()))
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_end_at_their_free_columns(m):
    # pvcore reads each isotropy vector's free column as its last nonzero
    # coordinate, and the pivot columns as the rest.
    _, pivots = sympy.Matrix(m).rref()
    last = [max(c for c, v in enumerate(vec) if v) for vec in kernel_basis(m)[0]]
    assert last == sorted(set(range(len(m[0]))) - set(pivots))


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(fraction_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_rational_determinants_match_sympy(m):
    expected = sympy.Matrix(m).det()
    got = det(m)
    assert isinstance(got, Fraction)
    assert sympy.Rational(got.numerator, got.denominator) == expected


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2]])
    assert det([]) == 1


def test_rref_shape_and_pivots():
    # Gauss-Jordan mode leaves the RREF as m / d: unit pivots, zeros above
    # and below them, and rows beyond the rank all zero.
    rows = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    m, pivots, d, _, _ = _echelon(rows, True)
    reduced = [[Fraction(v, d) for v in row] for row in m]
    assert pivots == [0, 2]
    for r, p in enumerate(pivots):
        assert reduced[r][p] == 1
        for other in range(len(reduced)):
            if other != r:
                assert reduced[other][p] == 0
    assert reduced[2] == [0, 0, 0]
    assert rows == [[2, 4, 6], [1, 2, 3], [0, 0, 5]]  # input untouched


def test_kernel_basis_frozen():
    # Frozen from the Fraction-based elimination: the canonical basis does
    # not depend on how the matrix is reduced.
    m = [[3, 1, -2, 4, 0], [6, 2, -4, 8, 0], [-3, 5, 7, 1, 2]]
    assert kernel_basis(m)[0] == [[17, -15, 18, 0, 0], [19, 15, 0, -18, 0], [1, -3, 0, 0, 9]]


def test_solve_round_trip():
    a = [[2, 1], [1, 3]]
    x = solve(a, [5, 10])
    assert matvec(a, x) == [Fraction(5), Fraction(10)]


def test_solve_rational_input():
    a = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 4), 5]]
    b = [Fraction(1, 6), -2]
    x = solve(a, b)
    assert all(isinstance(v, Fraction) for v in x)
    assert matvec(a, x) == b
    assert x == [Fraction(-1, 6), Fraction(-3, 8)]


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(fraction_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_inverse_is_a_two_sided_inverse(a):
    # scaled_inverse gives a^-1 = m / q in lowest terms, with det a.
    if det(a) == 0:
        with pytest.raises(ValueError):
            scaled_inverse(a)
        return
    m, q, d = scaled_inverse(a)
    assert d == det(a)
    assert all(type(v) is int for row in m for v in row) and q > 0
    assert gcd(q, *(v for row in m for v in row)) == 1
    inv = [[Fraction(v, q) for v in row] for row in m]
    assert matmul(a, inv) == identity(len(a))
    assert matmul(inv, a) == identity(len(a))


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        scaled_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        scaled_inverse([[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]])


def test_solve_rejects_singular():
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [1, 1])


@given(st.one_of(sparse_matrix(), small_matrix(entries=fraction_entries),
                 low_rank_matrix(fraction_entries)))
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_are_primitive(m):
    # Each kernel vector is the canonical representative of its line: integer
    # entries with gcd 1 and a positive leading entry, for Fraction input too.
    for v in kernel_basis(m)[0]:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1 and next(x for x in v if x) > 0


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert matmul(a, identity(2)) == a
    assert transpose(a) == [[1, 3], [2, 4]]


@st.composite
def matrix_product_case(draw):
    """A (rows x inner) and B (inner x cols), and v of size inner, all with
    int, Fraction or mixed entries."""
    entries = draw(st.sampled_from(
        [small_entries, fraction_entries, st.one_of(small_entries, fraction_entries)]))
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))

    def mat(r, c):
        return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)

    return (draw(mat(rows, inner)), draw(mat(inner, cols)),
            draw(st.lists(entries, min_size=inner, max_size=inner)))


@settings(max_examples=100, deadline=None)
@given(matrix_product_case())
def test_matmul_and_matvec_are_the_textbook_sums(case):
    a, b, v = case
    inner = range(len(v))
    want = [[sum(a[i][k] * b[k][j] for k in inner) for j in range(len(b[0]))]
            for i in range(len(a))]
    got = matmul(a, b)
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]
    want_v = [sum(a[i][k] * v[k] for k in inner) for i in range(len(a))]
    assert matvec(a, v) == want_v
    assert list(map(type, matvec(a, v))) == list(map(type, want_v))


def test_det_multiplicative():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 1]]
    assert det(matmul(a, b)) == det(a) * det(b)
