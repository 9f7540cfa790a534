"""Chevalley bases: brackets, Jacobi identity, Killing form."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pvlab._rand import Stream
from pvlab.chevalley import chevalley_basis
from pvlab.diagram import parse_diagram
from pvlab.rootsys import SimpleType

from _instances import FROZEN_ENUMERATED, FROZEN_LARGE

SMALL_TYPES = [SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3),
               SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 3),
               SimpleType("B", 4), SimpleType("C", 3), SimpleType("C", 4),
               SimpleType("D", 4), SimpleType("F", 4), SimpleType("G", 2)]


# Every type whose instances tests/data/parabolic_instances.json freezes.
FROZEN_TYPES = sorted({SimpleType(f, n) for f, n in FROZEN_ENUMERATED}
                      | {parse_diagram(text).type for text in FROZEN_LARGE})


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_chevalley_bases_are_frozen():
    # tests/data/chevalley_bases.json maps each type to the sha256 of the
    # repr of its sorted structure constants, sorted coroots, K_h table and
    # sorted root Killing values: no constant or sign may drift.
    got = {}
    for t in FROZEN_TYPES:
        cb = chevalley_basis(t)
        got[str(t)] = {"nconst": _digest(sorted(cb.nconst.items())),
                       "coroot": _digest(sorted(cb.coroot.items())),
                       "killing_h": _digest(cb.killing_h),
                       "root_killing": _digest(sorted(cb.root_killing.items()))}
    frozen = json.loads((Path(__file__).parent / "data" / "chevalley_bases.json").read_text())
    assert got == frozen


@pytest.mark.parametrize("t", FROZEN_TYPES, ids=str)
def test_structure_constants_are_string_lengths(t):
    # |N(a, b)| = p + 1, with p the largest k such that b - k a is a root,
    # for exactly the ordered pairs whose sum is a root.
    cb = chevalley_basis(t)
    roots = cb.rs.roots
    pairs = 0
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if not cb.rs.is_root(s):
                assert (a, b) not in cb.nconst
                continue
            p, cur = 0, tuple(y - x for x, y in zip(a, b))
            while cb.rs.is_root(cur):
                p, cur = p + 1, tuple(y - x for x, y in zip(a, cur))
            assert abs(cb.nconst[(a, b)]) == p + 1, (a, b)
            pairs += 1
    assert pairs == len(cb.nconst)


def _bracket_vec(cb, i, j, dim):
    out = [0] * dim
    for k, c in cb.bracket(i, j):
        out[k] += c
    return out


def _ad_matrix(cb, i):
    # ad(b_i): column j holds the coefficients of [b_i, b_j]
    m = [[0] * cb.dim for _ in range(cb.dim)]
    for j in range(cb.dim):
        for k, c in cb.bracket(i, j):
            m[k][j] = c
    return m


def _jacobi_holds(cb, i, j, k, dim):
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
    total = [0] * dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = _bracket_vec(cb, a, b, dim)
        outer = [0] * dim
        for m, coeff in enumerate(inner):
            if coeff:
                for idx, ci in cb.bracket(m, c):
                    outer[idx] += coeff * ci
        total = [t + o for t, o in zip(total, outer)]
    return all(v == 0 for v in total)


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_jacobi_exhaustive_small(t):
    cb = chevalley_basis(t)
    dim = cb.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                assert _jacobi_holds(cb, i, j, k, dim)


def test_jacobi_e8_sampled():
    cb = chevalley_basis(SimpleType("E", 8))
    dim = cb.dim
    stream = Stream(0, context="jacobi:e8")
    for _ in range(500):
        i = stream.randint(0, dim - 1)
        j = stream.randint(0, dim - 1)
        k = stream.randint(0, dim - 1)
        assert _jacobi_holds(cb, i, j, k, dim)


@pytest.mark.parametrize("t", [SimpleType("A", 3), SimpleType("G", 2)], ids=str)
def test_bracket_antisymmetry(t):
    cb = chevalley_basis(t)
    dim = cb.dim
    for i in range(dim):
        assert cb.bracket(i, i) == []
        for j in range(dim):
            forward = _bracket_vec(cb, i, j, dim)
            backward = _bracket_vec(cb, j, i, dim)
            assert forward == [-v for v in backward]


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_sl2_triples_on_simple_roots(t):
    cb = chevalley_basis(t)
    dim = cb.dim
    for i in range(1, t.rank + 1):
        alpha = tuple(1 if j == i else 0 for j in range(1, t.rank + 1))
        e = cb.e_index(alpha)
        f = cb.e_index(tuple(-v for v in alpha))
        h = _bracket_vec(cb, e, f, dim)
        # [h, e] = 2e and [h, f] = -2f
        he = [0] * dim
        hf = [0] * dim
        for m, coeff in enumerate(h):
            if coeff:
                for idx, ci in cb.bracket(m, e):
                    he[idx] += coeff * ci
                for idx, ci in cb.bracket(m, f):
                    hf[idx] += coeff * ci
        assert he == [2 if idx == e else 0 for idx in range(dim)]
        assert hf == [-2 if idx == f else 0 for idx in range(dim)]


def test_ad_matrix_consistent_with_bracket():
    cb = chevalley_basis(SimpleType("B", 3))
    dim = cb.dim
    for i in range(dim):
        ad = _ad_matrix(cb, i)
        for j in range(dim):
            col = [ad[r][j] for r in range(dim)]
            assert col == _bracket_vec(cb, i, j, dim)


def test_killing_form_invariance_sampled():
    cb = chevalley_basis(SimpleType("F", 4))
    dim = cb.dim
    stream = Stream(1, context="killing:f4")
    for _ in range(200):
        i = stream.randint(0, dim - 1)
        j = stream.randint(0, dim - 1)
        k = stream.randint(0, dim - 1)
        # kappa([x_i, x_j], x_k) + kappa(x_j, [x_i, x_k]) = 0
        left = sum(c * cb.killing(m, k) for m, c in cb.bracket(i, j))
        right = sum(c * cb.killing(j, m) for m, c in cb.bracket(i, k))
        assert left + right == 0


@pytest.mark.parametrize("t", [SimpleType("A", 3), SimpleType("B", 3), SimpleType("C", 3),
                               SimpleType("D", 4), SimpleType("G", 2)], ids=str)
def test_killing_is_trace_of_ad_products(t):
    # Invariance alone holds for any multiple of the form; this pins the scale.
    cb = chevalley_basis(t)
    ads = [_ad_matrix(cb, i) for i in range(cb.dim)]
    cols = [list(zip(*m)) for m in ads]
    for i in range(cb.dim):
        for j in range(cb.dim):
            trace = sum(x * y for row, col in zip(ads[i], cols[j]) for x, y in zip(row, col))
            assert cb.killing(i, j) == trace, (i, j)


def test_killing_matrix_nondegenerate():
    from pvlab._linalg import det
    for t in (SimpleType("A", 2), SimpleType("G", 2)):
        cb = chevalley_basis(t)
        assert det([[cb.killing(i, j) for j in range(cb.dim)] for i in range(cb.dim)]) != 0


def test_roots_and_indices_round_trip():
    cb = chevalley_basis(SimpleType("D", 4))
    assert [cb.e_index(r) for r in cb.rs.roots] == list(range(cb.rank, cb.dim))
    assert len(cb.rs.roots) == 24  # |Sigma| for D4; the rest of the basis is Cartan
