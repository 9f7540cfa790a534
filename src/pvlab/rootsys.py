"""Root systems of the finite simple types, in the simple-root basis.

Roots are integer coordinate vectors over the simple roots (never Euclidean
vectors), so every pairing is an exact Cartan-matrix contraction.  Classical
types are numbered along the chain with the short root of B at node n, the
long root of C at node n and the fork tips of D at nodes n-1, n; exceptional
types follow Bourbaki (E branch node 2 attached to node 4), except that our
G2 takes alpha_1 long so that the triple bond points from node 1 to node 2.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple

Root = tuple[int, ...]

_RANK_RANGE = {
    "A": (1, 512),
    "B": (2, 512),
    "C": (3, 512),
    "D": (4, 512),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class InadmissibleType(ValueError):
    """Family/rank combination outside the finite simple types."""


class SimpleType(NamedTuple):
    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def check_admissible(t: SimpleType) -> SimpleType:
    lo, hi = _RANK_RANGE.get(t.family, (None, None))
    if lo is None or not (lo <= t.rank <= hi):
        raise InadmissibleType(f"no simple type {t.family}{t.rank}")
    return t


def _bond_list(t: SimpleType) -> list[tuple[int, int, int, int]]:
    """Edges of the Dynkin graph as (i, j, C[i][j], C[j][i]), 1-based."""
    fam, n = t
    chain = lambda a, b: (a, b, -1, -1)  # noqa: E731
    if fam == "A":
        return [chain(i, i + 1) for i in range(1, n)]
    if fam == "B":  # short root at n
        return [chain(i, i + 1) for i in range(1, n - 1)] + [(n - 1, n, -2, -1)]
    if fam == "C":  # long root at n
        return [chain(i, i + 1) for i in range(1, n - 1)] + [(n - 1, n, -1, -2)]
    if fam == "D":
        return [chain(i, i + 1) for i in range(1, n - 2)] + [chain(n - 2, n - 1), chain(n - 2, n)]
    if fam == "E":
        spine = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        return [chain(a, b) for a, b in zip(spine, spine[1:])] + [chain(2, 4)]
    if fam == "F":
        return [chain(1, 2), (2, 3, -2, -1), chain(3, 4)]
    return [(1, 2, -3, -1)]  # G2, alpha_1 long (see module docstring)


def cartan_matrix(t: SimpleType) -> list[list[int]]:
    check_admissible(t)
    n = t.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in _bond_list(t):
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji
    return c


def _root_lengths(cartan: list[list[int]]) -> list[int]:
    """Relative squared lengths d_i of the simple roots (smallest = 1).

    Determined up to scale by the symmetry d_i * C[j][i] = d_j * C[i][j];
    propagated along the (connected) Dynkin graph.
    """
    from fractions import Fraction

    n = len(cartan)
    d: list = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    scale = min(x for x in d)
    out = [x / scale for x in d]
    assert all(x.denominator == 1 for x in out)
    return [int(x) for x in out]


class RootSystem:
    """A finite root system with exact integer data.

    Attributes
    ----------
    type : SimpleType
    cartan : list of rows, cartan[i][j] = alpha_i(H_{alpha_j})
    positive : positive roots sorted by (height, coordinates)
    roots : positive roots followed by their negatives (same order)
    lengths : relative squared lengths of the simple roots
    """

    def __init__(self, t: SimpleType) -> None:
        check_admissible(t)
        self.type = t
        self.rank = t.rank
        self.cartan = cartan_matrix(t)
        self.lengths = _root_lengths(self.cartan)
        self.positive = _positive_roots(self.cartan)
        self.roots = self.positive + [tuple(-v for v in r) for r in self.positive]
        self._index = {r: i for i, r in enumerate(self.roots)}
        n = self.rank
        self._neighbors = {i: tuple(j for j in range(1, n + 1) if self.adjacent(i, j))
                           for i in range(1, n + 1)}

    def is_root(self, v: Root) -> bool:
        return v in self._index

    def index(self, root: Root) -> int:
        return self._index[root]

    def adjacent(self, i: int, j: int) -> bool:
        """Dynkin-graph adjacency of simple roots i, j (1-based)."""
        return i != j and self.cartan[i - 1][j - 1] != 0

    def neighbors(self, i: int) -> tuple[int, ...]:
        """The nodes adjacent to node i, ascending; computed once per system."""
        return self._neighbors[i]


def _positive_roots(cartan: list[list[int]]) -> list[Root]:
    """Positive roots as the closure of the simple roots under the simple
    reflections that raise the height, sorted by (height, coordinates).

    s_i r = r - r(H_i) alpha_i raises the height exactly when r(H_i) < 0.
    A positive root r that is not simple has some i with r(H_i) > 0, and
    s_i r is then a positive root of smaller height (Humphreys, Lemma
    10.2B) from which s_i raises back to r; so by induction on the height
    every positive root is reached, and reflections reach only roots.
    """
    n = len(cartan)
    cols = list(zip(*cartan))  # r(H_i) = sum_j r_j cartan[j][i]
    roots = frontier = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    while frontier:
        frontier = {r[:i] + (r[i] - p,) + r[i + 1:] for r in frontier
                    for i, col in enumerate(cols) if (p := sum(map(mul, r, col))) < 0} - roots
        roots = roots | frontier
    return sorted(roots, key=lambda r: (sum(r), r))


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Build (and cache) the root system of a simple type.

    Examples
    ========
    >>> rs = build_root_system(SimpleType("A", 2))
    >>> len(rs.roots)
    6
    >>> rs.positive
    [(0, 1), (1, 0), (1, 1)]
    """
    return RootSystem(t)


class DiagramPiece(NamedTuple):
    """A connected induced sub-diagram, relabelled to a standard standalone type.

    ``relabel`` maps ambient 1-based node indices to 1-based indices of the
    standalone type, so that the induced Cartan matrix is the standard one.
    """

    nodes: tuple[int, ...]
    type: SimpleType
    relabel: dict[int, int]


def split_pieces(rs: RootSystem, nodes) -> list[DiagramPiece]:
    """Partition ``nodes`` into Dynkin-graph components, in order of their
    least node, each relabelled to its standalone type by
    :func:`_induced_piece`; a connected set gives one piece."""
    nodes = set(nodes)
    seen: set[int] = set()
    out: list[DiagramPiece] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        todo = [start]
        while todo:
            a = todo.pop()
            for b in rs.neighbors(a):
                if b in nodes and b not in comp:
                    comp.add(b)
                    todo.append(b)
        seen |= comp
        out.append(_induced_piece(rs, tuple(sorted(comp))))
    return out


@lru_cache(maxsize=None)
def _induced_piece(rs: RootSystem, nodes: tuple[int, ...]) -> DiagramPiece:
    """Classify the connected induced sub-diagram on the sorted ``nodes``
    and relabel it.

    The piece is named by matching Cartan matrices: its nodes are read in
    a few candidate orders, and the piece takes the first family in
    ``_RANK_RANGE`` order, with the first order, for which
    :func:`cartan_matrix` equals the piece's Cartan matrix read in that
    order.  A path is read from its least end and then backwards.  A
    branched piece is read once as D: its longest arm from the far end
    inward (ties to the least far node), the branch node, then the two
    other tips by index.  It is read once as E, with the arms sorted by
    length and then far node: the middle arm's far node, the short arm,
    the middle arm's near node, the branch node, then the long arm outward.
    So B keeps its short root last, C its long root last, G2 and F4 their
    long roots first, and D4 takes its least tip as node 1.  Every
    connected sub-diagram of a simple type matches some family; a piece
    that matched none would raise StopIteration.  Results are
    cached per root system and node tuple, so callers share one piece and
    must not mutate its ``relabel``.
    """
    C = rs.cartan
    adj = {a: [b for b in nodes if b != a and C[a - 1][b - 1] != 0] for a in nodes}

    def walk(prev, a):  # the chain from a, away from prev, to its end
        out = [a]
        while step := [b for b in adj[a] if b != prev]:
            prev, a = a, step[0]
            out.append(a)
        return out

    hubs = [a for a in nodes if len(adj[a]) == 3]
    if hubs:
        hub = hubs[0]
        arms = [walk(hub, b) for b in adj[hub]]
        longest, tip, last_tip = sorted(arms, key=lambda arm: (-len(arm), arm[-1]))
        short, middle, rest = sorted(arms, key=lambda arm: (len(arm), arm[-1]))
        orders = [longest[::-1] + [hub] + tip + last_tip,        # as D
                  [middle[-1], short[0], middle[0], hub] + rest]  # as E (Bourbaki)
    else:
        path = walk(None, min(a for a in nodes if len(adj[a]) < 2))
        orders = [path, path[::-1]]
    blocks = [[[C[a - 1][b - 1] for b in order] for a in order] for order in orders]
    k = len(nodes)
    types = [SimpleType(fam, k) for fam, (lo, hi) in _RANK_RANGE.items() if lo <= k <= hi]
    t, order = next((t, order) for t in types for order, block in zip(orders, blocks)
                    if block == cartan_matrix(t))
    return DiagramPiece(nodes, t, {a: i + 1 for i, a in enumerate(order)})
