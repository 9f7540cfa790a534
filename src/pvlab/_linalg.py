"""Exact linear algebra on list-of-lists matrices over int / Fraction.

Rank, kernel and determinant decisions feed classification verdicts, so
everything here is exact.  One eliminator, :func:`_echelon`, serves rank,
det, kernel, inverse and solve: each row is scaled to integers once by
:func:`_integer_row`, then fraction-free elimination (Bareiss 1968)
divides exactly by the previous pivot, so entries stay integer minors of
the input and no rational is formed until a caller asks for one.  Forward
elimination clears below the pivots, touching each row below a pivot only
from the pivot column on (rank, determinant).  Gauss-Jordan mode (kernel,
inverse) then substitutes back, from the last pivot row up, leaving a
common pivot value ``d`` such that the reduced row echelon form is
``m / d``: each reduced row times d is an integer vector, so every
division in the substitution is exact.  Solve applies the inverse.

Row scaling is lazy.  Textbook Bareiss multiplies every row whose entry in
the pivot column is zero by ``p / d`` at every step; on the sparse
isotropy kernels and Gram matrices of this package that is most rows.
Here such a row is left as it is, with the pivot value at which it was
last brought current, and scaled once, when it is next combined or chosen
as pivot.  The result is the same matrix.

A mod-p elimination is provided as a fast certificate: it reduces the rows
scaled to integers by :func:`_integer_row` mod the Mersenne prime P61.
Scaling a row by a nonzero integer keeps its rank over Q, and the rank mod
p never exceeds the rank over Z, so reaching the maximal possible rank mod
p proves it exactly.  An exact elimination's last pivot d is a minor of the
rank's size (:func:`kernel_basis` returns it); ``pvcore`` reads d as
det(A_P) for a form determinant, never d mod P61, since each of its
generic-point draws is certified by its exact rank.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

P61 = (1 << 61) - 1  # Mersenne prime

Vec = list
Mat = list  # list of row lists


def modp_rank(rows: Mat) -> int:
    """Rank mod P61 of the rows scaled to integers (a lower bound for the
    exact rank)."""
    p = P61
    m = [[v % p for v in _integer_row(row)[0]] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p)
        prow = m[row]
        for r in range(row + 1, nrows):
            f = m[r][col]
            if f:
                f = f * inv % p
                mr = m[r]
                for c in range(col, ncols):
                    mr[c] = (mr[c] - f * prow[c]) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _integer_row(row: Vec) -> tuple[Vec, int]:
    """The row times the least common denominator of its entries, and that
    factor; a row of ints (bools count as ints) is returned as it is."""
    if all(map(int.__instancecheck__, row)):
        return row, 1
    fr = [Fraction(v) for v in row]
    mult = lcm(*(v.denominator for v in fr))
    return [v.numerator * (mult // v.denominator) for v in fr], mult


def _echelon(rows: Mat, jordan: bool) -> tuple[list, list[int], int, int, int]:
    """Fraction-free echelon form of ``rows``; the input is not modified.

    Returns ``(m, pivots, d, sign, scale)``: the integer matrix, its pivot
    columns, the last pivot value, the sign of the row swaps and the
    product of the integer factors the rows were scaled by.  Every pivot
    row ``r`` of ``m`` starts with zeros up to column ``pivots[r]``; rows
    past ``len(pivots)`` are zero.  ``d`` is, up to sign, the minor of the
    scaled rows on the pivot rows and columns.  With ``jordan`` every pivot
    equals ``d`` and the pivot columns are zero elsewhere, so the reduced
    row echelon form is ``m / d``.  Without it only rows below a pivot are
    cleared, and for a square matrix of full rank ``sign * d / scale`` is
    the determinant.

    Forward elimination: ``at[r]`` is the pivot value at which row r was
    last brought current: its current value is ``m[r] * d / at[r]``, an
    integer.  A row with a zero in the pivot column is not touched.  A row
    below the pivot with entry f there becomes ``(p * m[r] - f * prow) //
    at[r]``, the Bareiss step with the pending factor ``d / at[r]``
    cancelled, and is current at the new pivot p.  Only its tail from the
    pivot column on is computed, in place: to the left it is already zero.
    The pivot row is brought current before it is used, and is then final:
    row k, U_k, is current at its own pivot p_k.

    Gauss-Jordan mode then substitutes back, last pivot row first:

        R_k = (d U_k - sum_{j > k} U_k[c_j] R_j) / p_k,

    with c_j the pivot columns.  U_k / p_k minus those multiples of the
    reduced rows R_j / d is the reduced row k, so R_k = d rref_k; it is an
    integer vector (Cramer's rule on the pivot minor d), so the division
    is exact, and the reduced form is unique, so ``m``, ``pivots`` and
    ``d`` are those of a full Gauss-Jordan pass.
    """
    m, scale = [], 1
    for row in rows:
        ints, mult = _integer_row(row)
        m.append(list(ints))  # a copy: the tails are updated in place
        scale *= mult
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    d, sign = 1, 1
    at = [1] * nrows  # the pivot value at which each row was last brought current
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, nrows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            at[k], at[piv] = at[piv], at[k]
            sign = -sign
        prow = m[k]
        if at[k] != d:
            a = at[k]
            prow[col:] = [v * d // a for v in prow[col:]]
        p = prow[col]
        at[k] = p
        tail = prow[col:]
        for r in range(k + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f:
                a = at[r]
                mr[col:] = [(p * u - f * v) // a for u, v in zip(mr[col:], tail)]
                at[r] = p
        pivots.append(col)
        d = p
        if k + 1 == nrows:
            break
    if jordan:
        for k in range(len(pivots) - 2, -1, -1):
            c, u = pivots[k], m[k]
            acc = [d * v for v in u[c:]]
            for j in range(k + 1, len(pivots)):
                cj = pivots[j]
                f = u[cj]
                if f:
                    off = cj - c
                    acc[off:] = [a - f * b for a, b in zip(acc[off:], m[j][cj:])]
            pk = at[k]
            u[c:] = [a // pk for a in acc]
    return m, pivots, d, sign, scale


def rank(rows: Mat) -> int:
    """Exact rank over Q."""
    return len(_echelon(rows, False)[1])


def clear_denominators(vec: Vec) -> list[int]:
    """Scale a rational vector to a primitive integer vector.

    The leading nonzero entry is made positive, so the output is a canonical
    representative of the line spanned by the input.
    """
    out = _integer_row(vec)[0]
    g = gcd(*out)
    if next((v for v in out if v), 0) < 0:
        g = -g
    return [v // g for v in out] if g else list(out)


def kernel_basis(rows: Mat) -> tuple[list[list[int]], int, int]:
    """Basis of the right kernel {x : A x = 0}, as primitive integer vectors,
    with the rank and the last pivot d of the same elimination.

    Deterministic: one basis vector per free column, ordered by free column.
    With the reduced row echelon form ``m / d``, the vector of free column f
    is ``d e_f - sum_r m[r][f] e_{pivot r}``, made primitive.  d is, up to
    sign, a rank x rank minor of the rows scaled to integers by
    :func:`_integer_row`; ``pvcore`` reads it as +-det(A_P) in a form
    determinant, not mod P61.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots, d, _, _ = _echelon(rows, True)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        x = [0] * ncols
        x[f] = d
        for r, c in enumerate(pivots):
            x[c] = -m[r][f]
        basis.append(clear_denominators(x))
    return basis, len(pivots), d


def det(rows: Mat) -> Fraction:
    """Exact determinant for rational input (rows are scaled to integers)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign, scale = _echelon(rows, False)
    return Fraction(sign * d, scale) if len(pivots) == n else Fraction(0)


def scaled_inverse(a: Mat) -> tuple[list[list[int]], int, Fraction]:
    """``(m, q, det a)`` with a^-1 = m / q in lowest terms, m an integer
    matrix and q > 0, from one Gauss-Jordan pass on [a | I]: the reduced
    form is d * [I | a^-1], and the forward pass gives det a as :func:`det`
    does."""
    n = len(a)
    m, pivots, d, sign, scale = _echelon([list(row) + [int(r == k) for k in range(n)]
                                          for r, row in enumerate(a)], True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    g = gcd(d, *(v for row in m for v in row[n:])) * (1 if d > 0 else -1)
    return [[v // g for v in row[n:]] for row in m], d // g, Fraction(sign * d, scale)


def inverse(a: Mat) -> list[list[Fraction]]:
    """Exact inverse of a square matrix: m / q from :func:`scaled_inverse`."""
    m, q, _ = scaled_inverse(a)
    return [[Fraction(v, q) for v in row] for row in m]


def solve(a: Mat, b: Vec) -> list[Fraction]:
    """Solve A x = b for square nonsingular A, exactly."""
    return matvec(inverse(a), b)


def matvec(m: Mat, v: Vec) -> list:
    return [sum(map(mul, row, v)) for row in m]


def matmul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def transpose(m: Mat) -> Mat:
    return [list(row) for row in zip(*m)]

