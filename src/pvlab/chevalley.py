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
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .rootsys import Root, RootSystem, SimpleType, build_root_system, pairing


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _build_nconst(rs: RootSystem) -> dict[tuple[Root, Root], int]:
    """Structure constants N(a, b) for every ordered root pair with a+b a root."""
    pos = rs.positive
    posset = set(pos)
    order = {r: i for i, r in enumerate(pos)}
    n2 = rs.norm2
    canonical = {r: r for r in rs.roots}  # keys share the root system's tuples
    N: dict[tuple[Root, Root], int] = {}

    def down_len(alpha: Root, beta: Root) -> int:
        p, cur = 0, _sub(beta, alpha)
        while cur in posset or _neg(cur) in posset:
            p, cur = p + 1, _sub(cur, alpha)
        return p

    def put(a: Root, b: Root, v: int) -> None:
        a, b = canonical[a], canonical[b]
        N[(a, b)] = v
        N[(b, a)] = -v

    for sigma in pos:
        pairs = [(alpha, _sub(sigma, alpha)) for alpha in pos
                 if order[alpha] < order[sigma]
                 and _sub(sigma, alpha) in posset
                 and order[alpha] < order[_sub(sigma, alpha)]]
        if not pairs:
            continue
        pairs.sort(key=lambda ab: order[ab[0]])
        a1, b1 = pairs[0]
        put(a1, b1, down_len(a1, b1) + 1)
        denom = -Fraction(n2(b1), n2(sigma)) * N[(a1, b1)]  # bracket down by a1
        for alpha, beta in pairs[1:]:
            t1 = t2 = Fraction(0)
            bm = _sub(beta, a1)
            if bm in posset:
                t1 = -Fraction(n2(bm), n2(beta)) * N[(a1, bm)] * N[(bm, alpha)]
            am = _sub(alpha, a1)
            if am in posset:
                t2 = Fraction(n2(am), n2(alpha)) * N[(a1, am)] * N[(am, beta)]
            val = -(t1 + t2) / denom
            assert val.denominator == 1, (sigma, alpha, beta, val)
            put(alpha, beta, int(val))

    for (a, b), v in [((a, b), v) for (a, b), v in N.items() if order[a] < order[b]]:
        put(_neg(a), _neg(b), -v)
    for xi in pos:
        for mu in pos:
            if mu == xi:
                continue
            d = _sub(xi, mu)
            if d in posset:
                val = -Fraction(n2(d), n2(xi)) * N[(mu, d)]
            elif _neg(d) in posset:
                tau = _neg(d)
                val = Fraction(n2(tau), n2(mu)) * N[(tau, xi)]
            else:
                continue
            assert val.denominator == 1, (xi, mu, val)
            put(xi, _neg(mu), int(val))
    return N


class ChevalleyBasis:
    """Integer structure constants and Killing form of a simple Lie algebra.

    ``root_killing[g]`` is K(e_g, e_-g), computed once per root; the Killing
    form pairs each e_g with e_-g only.
    """

    def __init__(self, t: SimpleType) -> None:
        self.type = t
        self.rs = build_root_system(t)
        self.rank = t.rank
        self.dim = t.rank + len(self.rs.roots)
        self.nconst = _build_nconst(self.rs)
        self._coroot: dict[Root, tuple[int, ...]] = {}
        for g in self.rs.roots:
            c = [Fraction(2 * m * self.rs.lengths[i], self.rs.norm2(g)) for i, m in enumerate(g)]
            assert all(x.denominator == 1 for x in c), (g, c)
            self._coroot[g] = tuple(int(x) for x in c)
        self._killing_h = [[sum(pairing(self.rs, g, i + 1) * pairing(self.rs, g, j + 1)
                                for g in self.rs.roots)
                            for j in range(self.rank)] for i in range(self.rank)]
        # h = [e_g, e_-g] and g(h) = 2, so K(h, h) = K(e_g, [e_-g, h]) = 2 K(e_g, e_-g);
        # the coroot of -g is -h, so g and -g share the value.
        self.root_killing: dict[Root, int] = {}
        for g in self.rs.positive:
            c = [(a, ca) for a, ca in enumerate(self._coroot[g]) if ca]
            kg = sum(ca * cb * self._killing_h[a][b] for a, ca in c for b, cb in c) // 2
            self.root_killing[g] = self.root_killing[_neg(g)] = kg

    # -- basis bookkeeping -------------------------------------------------
    def e_index(self, root: Root) -> int:
        """Basis index of the root vector of ``root``."""
        return self.rank + self.rs.index(root)

    # -- brackets ----------------------------------------------------------
    def bracket(self, i: int, j: int) -> list[tuple[int, int]]:
        """[b_i, b_j] as a sparse list of (basis index, integer coefficient)."""
        n = self.rank
        if i < n and j < n:
            return []
        if i < n:
            root = self.rs.roots[j - n]
            c = pairing(self.rs, root, i + 1)
            return [(j, c)] if c else []
        if j < n:
            root = self.rs.roots[i - n]
            c = pairing(self.rs, root, j + 1)
            return [(i, -c)] if c else []
        g, d = self.rs.roots[i - n], self.rs.roots[j - n]
        s = tuple(x + y for x, y in zip(g, d))
        if not any(s):
            return [(k, c) for k, c in enumerate(self._coroot[g]) if c]
        if self.rs.is_root(s):
            return [(n + self.rs.index(s), self.nconst[(g, d)])]
        return []

    def ad_matrix(self, i: int) -> list[list[int]]:
        """Matrix of ad(b_i): column j holds the coefficients of [b_i, b_j]."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.bracket(i, j):
                m[k][j] = c
        return m

    # -- Killing form --------------------------------------------------------
    def killing(self, i: int, j: int) -> int:
        n = self.rank
        if i < n and j < n:
            return self._killing_h[i][j]
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
