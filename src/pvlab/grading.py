"""Gradings induced by a weighted diagram.

Circling nodes defines a semisimple grading element: the unique Cartan
element on which circled simple roots take the value 2 and uncircled ones 0.
Root spaces then sit at integer levels (half the eigenvalue), level 0 is the
reductive subalgebra generated by the Cartan and the uncircled roots, and
level 1 splits into one irreducible piece per circled node.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import solve
from .diagram import WeightedDiagram
from .rootsys import Root, build_root_system


class NotAdjacent(ValueError):
    pass


@dataclass(frozen=True)
class Grading:
    """Level decomposition of the ambient algebra under a weighted diagram."""

    diagram: WeightedDiagram
    h_theta: tuple[Fraction, ...]
    degrees: dict[Root, int]
    dim_by_level: dict[int, int]


@dataclass(frozen=True)
class Component:
    """One irreducible level-1 piece, attached to a circled node."""

    alpha: int
    roots: tuple[Root, ...]
    dim: int
    j_alpha: tuple[int, ...]
    highest_weight: dict[int, int]


def degree(d: WeightedDiagram, root: Root) -> int:
    """Level of a root: the sum of its coefficients at circled nodes."""
    return sum(root[i - 1] for i in d.circled)


def compute_grading(d: WeightedDiagram) -> Grading:
    """Solve for the grading element and count dimensions per level.

    Examples
    ========
    >>> from .diagram import parse_diagram
    >>> g = compute_grading(parse_diagram("A3[1,3]"))
    >>> g.dim_by_level
    {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1}
    """
    rs = build_root_system(d.type)
    n = d.type.rank
    targets = [2 if i in d.circled else 0 for i in range(1, n + 1)]
    h = solve(rs.cartan, targets)
    degrees = {r: degree(d, r) for r in rs.roots}
    dims: dict[int, int] = {0: n}
    for lvl in degrees.values():
        dims[lvl] = dims.get(lvl, 0) + 1
    return Grading(d, tuple(h), degrees, dict(sorted(dims.items())))


def components(d: WeightedDiagram) -> list[Component]:
    """The irreducible pieces of level 1, one per circled node, ascending.

    One pass over the positive roots: a root of level 1 has coefficient 1
    at exactly one circled node, and joins that node's piece.  Each piece
    keeps the positive roots' order.
    """
    rs = build_root_system(d.type)
    axes = [a - 1 for a in d.circled]
    by_node: dict[int, list[Root]] = {a: [] for a in d.circled}
    for r in rs.positive:
        coeffs = [r[i] for i in axes]
        if sum(coeffs) == 1:
            by_node[d.circled[coeffs.index(1)]].append(r)
    out = []
    for a, roots in by_node.items():
        j = tuple(b for b in rs.neighbors(a) if b not in d.circled)
        hw = {b: rs.cartan[a - 1][b - 1] for b in j}
        out.append(Component(a, tuple(roots), len(roots), j, hw))
    return out


def rules_R(d: WeightedDiagram, alpha: int, beta: int) -> int:
    """Shortcut for the Cartan integer of a circled node against a theta neighbor.

    Returns -1 when the circled root is not longer than its neighbor, else
    minus the bond multiplicity; always equal to ``pairing(alpha, beta)``.
    """
    rs = build_root_system(d.type)
    if alpha not in d.circled or beta in d.circled or not rs.adjacent(alpha, beta):
        raise NotAdjacent(f"need a circled node and an adjacent theta node, got ({alpha}, {beta})")
    la, lb = rs.lengths[alpha - 1], rs.lengths[beta - 1]
    if la <= lb:
        return -1
    return -(la // lb)


def level_roots(d: WeightedDiagram, level: int) -> list[Root]:
    """All roots at a given level, in root-system order."""
    rs = build_root_system(d.type)
    return [r for r in rs.roots if degree(d, r) == level]


def simple_root(rank: int, i: int) -> Root:
    return tuple(1 if j == i - 1 else 0 for j in range(rank))
