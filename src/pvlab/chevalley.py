"""Chevalley bases with exact integer structure constants.

Basis layout for a simple type of rank n with 2N roots:

* indices ``0 .. n-1`` are the coroot generators ``H_1 .. H_n``,
* index ``n + k`` is the root vector of ``roots[k]`` (positives first,
  then the negatives in the same order).

Signs are fixed by the standard extraspecial-pair scheme over the
(height, coordinates) order of the positive roots: the minimal pair
summing to each root gets a positive constant and every other constant
follows from the Jacobi identity, so all brackets are integral and
``|N(a, b)| = p + 1`` with p the length of the descending root string.

Each per-root quantity is computed once: a positive root's pairing row
r(H_1) .. r(H_n), its squared length sum_i d_i r_i r(H_i) from that row
(d_i the simple roots' relative lengths) and its coroot, and a negative
root's coroot and row are its positive's negated.  One pass over the
ordered pairs of positive roots groups them by their sum; the
Jacobi step and the constants N(a, -b) all read those groups.  Summed over
the roots, r(H_i) r(H_j) is K(H_i, H_j), so K_h is twice the sum of the
positive rows' outer products.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

from .rootsys import Root, RootSystem, SimpleType, build_root_system


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    q, r = divmod(num, den)
    assert r == 0, (num, den)
    return q


def _build_nconst(rs: RootSystem, n2: dict[Root, int]) -> dict[tuple[Root, Root], int]:
    """Structure constants N(a, b) for every ordered root pair with a+b a root.

    ``n2`` maps each positive root to its squared length.
    """
    pos = rs.positive
    neg = dict(zip(pos, rs.roots[len(pos):]))  # keys share the root system's tuples
    where = {r: k for k, r in enumerate(pos)}
    # sums[k]: the pairs (a, b) of positive roots with a first and a + b = pos[k], by a
    sums: list[list[tuple[Root, Root]]] = [[] for _ in pos]
    for i, a in enumerate(pos):
        for b in pos[i + 1:]:
            k = where.get(tuple(map(add, a, b)))
            if k is not None:
                sums[k].append((a, b))
    N: dict[tuple[Root, Root], int] = {}

    def put(a: Root, b: Root, v: int) -> None:
        N[(a, b)] = v
        N[(b, a)] = -v

    for sigma, pairs in zip(pos, sums):
        if not pairs:
            continue
        a1, b1 = pairs[0]
        p, cur = 0, tuple(map(sub, b1, a1))
        while rs.is_root(cur):
            p, cur = p + 1, tuple(map(sub, cur, a1))
        put(a1, b1, p + 1)
        # the Jacobi identity on (a1, alpha, beta), cleared of the length ratios
        den = n2[b1] * N[(a1, b1)]
        for alpha, beta in pairs[1:]:
            num = 0
            bm = tuple(map(sub, beta, a1))
            if bm in where:
                num -= n2[bm] * n2[alpha] * N[(a1, bm)] * N[(bm, alpha)]
            am = tuple(map(sub, alpha, a1))
            if am in where:
                num += n2[am] * n2[beta] * N[(a1, am)] * N[(am, beta)]
            put(alpha, beta, _exact(num * n2[sigma], den * n2[alpha] * n2[beta]))

    for sigma, pairs in zip(pos, sums):
        for a, b in pairs:
            put(neg[a], neg[b], -N[(a, b)])
            # for sigma = x + y: N(sigma, -x) = N(x, -sigma) = -|y|^2 N(x, y) / |sigma|^2
            for x, y in ((a, b), (b, a)):
                v = _exact(-n2[y] * N[(x, y)], n2[sigma])
                put(sigma, neg[x], v)
                put(x, neg[sigma], v)
    return N


class ChevalleyBasis:
    """Integer structure constants and Killing form of a simple Lie algebra.

    Built once per type from per-root tables (see the module docstring):
    ``nconst`` holds N(a, b), ``coroot[g]`` the coroot [e_g, e_-g] over
    H_1 .. H_n, ``pairings[k]`` the row roots[k](H_1) .. roots[k](H_n),
    ``_position[g]`` the basis index of e_g, and ``killing_h`` the Killing
    form on H_1 .. H_n, as a list of rows.
    ``root_killing[g]`` is K(e_g, e_-g), computed once per root; the Killing
    form pairs each e_g with e_-g only.
    """

    def __init__(self, t: SimpleType) -> None:
        self.type = t
        self.rs = rs = build_root_system(t)
        self.rank = t.rank
        self.dim = t.rank + len(rs.roots)
        pos = rs.positive
        cols = list(zip(*rs.cartan))
        rows = [tuple(sum(map(mul, g, col)) for col in cols) for g in pos]
        # |g|^2 = sum_i d_i g_i g(H_i), shortest simple root 2
        n2 = {g: sum(map(mul, map(mul, rs.lengths, g), row)) for g, row in zip(pos, rows)}
        self.pairings = rows + [tuple(-x for x in row) for row in rows]
        self._position = {g: self.rank + k for k, g in enumerate(rs.roots)}
        self.nconst = _build_nconst(rs, n2)
        up = [tuple(_exact(2 * m * d, n2[g]) for m, d in zip(g, rs.lengths)) for g in pos]
        self.coroot: dict[Root, tuple[int, ...]] = dict(
            zip(rs.roots, up + [tuple(-c for c in h) for h in up]))
        by_node = list(zip(*rows))
        self.killing_h = [[2 * sum(map(mul, a, b)) for b in by_node] for a in by_node]
        # h = [e_g, e_-g] and g(h) = 2, so K(h, h) = K(e_g, [e_-g, h]) = 2 K(e_g, e_-g);
        # the coroot of -g is -h, so g and -g share the value.
        self.root_killing: dict[Root, int] = {}
        for g, h, minus in zip(pos, up, rs.roots[len(pos):]):
            c = [(a, ca) for a, ca in enumerate(h) if ca]
            kg = sum(ca * cb * self.killing_h[a][b] for a, ca in c for b, cb in c) // 2
            self.root_killing[g] = self.root_killing[minus] = kg

    # -- basis bookkeeping -------------------------------------------------
    def e_index(self, root: Root) -> int:
        """Basis index of the root vector of ``root``."""
        return self._position[root]

    # -- brackets ----------------------------------------------------------
    def bracket(self, i: int, j: int) -> list[tuple[int, int]]:
        """[b_i, b_j] as a sparse list of (basis index, integer coefficient)."""
        n = self.rank
        if i < n and j < n:
            return []
        if i < n:
            c = self.pairings[j - n][i]
            return [(j, c)] if c else []
        if j < n:
            c = self.pairings[i - n][j]
            return [(i, -c)] if c else []
        g, d = self.rs.roots[i - n], self.rs.roots[j - n]
        s = tuple(x + y for x, y in zip(g, d))
        if not any(s):
            return [(k, c) for k, c in enumerate(self.coroot[g]) if c]
        k = self._position.get(s)
        return [] if k is None else [(k, self.nconst[(g, d)])]

    # -- Killing form --------------------------------------------------------
    def killing(self, i: int, j: int) -> int:
        n = self.rank
        if i < n and j < n:
            return self.killing_h[i][j]
        if i < n or j < n:
            return 0
        g, d = self.rs.roots[i - n], self.rs.roots[j - n]
        if any(x + y for x, y in zip(g, d)):
            return 0
        return self.root_killing[g]


@lru_cache(maxsize=None)
def chevalley_basis(t: SimpleType) -> ChevalleyBasis:
    """Build (and cache) the Chevalley basis of a simple type.

    Examples
    ========
    >>> cb = chevalley_basis(SimpleType("A", 1))
    >>> cb.bracket(1, 2)  # [e, f] = h
    [(0, 1)]
    >>> cb.killing(1, 2), cb.killing(0, 0)
    (4, 8)
    """
    return ChevalleyBasis(t)
