"""Exact linear algebra on list-of-lists matrices over int / Fraction.

Rank, kernel and determinant decisions feed classification verdicts, so
everything here is exact.  One eliminator, :func:`_echelon`, serves rank,
det, kernel, inverse and solve: each row is scaled to integers once by
:func:`_integer_row`, then fraction-free elimination (Bareiss 1968)
divides exactly by the previous pivot, so entries stay integer minors of
the input and no rational is formed until a caller asks for one.  Forward
mode clears below the pivots (rank, determinant); Gauss-Jordan mode clears
above them too (kernel, inverse), leaving a common pivot value ``d`` such
that the reduced row echelon form is ``m / d``.  Solve applies the inverse.

A mod-p elimination is provided as a fast certificate: it reduces the rows
scaled to integers by :func:`_integer_row` mod the Mersenne prime P61.
Scaling a row by a nonzero integer keeps its rank over Q, and the rank mod
p never exceeds the rank over Z, so reaching the maximal possible rank mod
p proves it exactly.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    factor; a row of ints is returned as it is."""
    if all(type(v) is int for v in row):
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
    past ``len(pivots)`` are zero.  With ``jordan`` every pivot equals ``d``
    and the pivot columns are zero elsewhere, so the reduced row echelon
    form is ``m / d``.  Without it only rows below a pivot are cleared, and
    for a square matrix of full rank ``sign * d / scale`` is the
    determinant.
    """
    m, scale = [], 1
    for row in rows:
        ints, mult = _integer_row(row)
        m.append(ints)
        scale *= mult
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, nrows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        prow = m[k]
        p = prow[col]
        for r in range(0 if jordan else k + 1, nrows):
            if r == k:
                continue
            mr = m[r]
            f = mr[col]
            if f:
                m[r] = [(p * a - f * b) // d for a, b in zip(mr, prow)]
            elif p != d:
                m[r] = [p * a // d for a in mr]
        pivots.append(col)
        d = p
        if k + 1 == nrows:
            break
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


def kernel_basis(rows: Mat) -> list[list[int]]:
    """Basis of the right kernel {x : A x = 0}, as primitive integer vectors.

    Deterministic: one basis vector per free column, ordered by free column.
    With the reduced row echelon form ``m / d``, the vector of free column f
    is ``d e_f - sum_r m[r][f] e_{pivot r}``, made primitive.
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
    return basis


def det(rows: Mat) -> Fraction:
    """Exact determinant for rational input (rows are scaled to integers)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign, scale = _echelon(rows, False)
    return Fraction(sign * d, scale) if len(pivots) == n else Fraction(0)


def inverse(a: Mat) -> list[list[Fraction]]:
    """Exact inverse of a square matrix, from one Gauss-Jordan pass on
    [a | I]: the reduced form is d * [I | a^-1], so the inverse is the
    right half over d."""
    n = len(a)
    m, pivots, d, _, _ = _echelon([list(row) + [int(r == k) for k in range(n)]
                                   for r, row in enumerate(a)], True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(v, d) for v in row[n:]] for row in m]


def solve(a: Mat, b: Vec) -> list[Fraction]:
    """Solve A x = b for square nonsingular A, exactly."""
    return matvec(inverse(a), b)


def matvec(m: Mat, v: Vec) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def matmul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(m: Mat) -> Mat:
    return [list(row) for row in zip(*m)]


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(nrows: int, ncols: int) -> Mat:
    return [[0] * ncols for _ in range(nrows)]
