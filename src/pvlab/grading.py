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


@dataclass(frozen=True)
class Grading:
    """Level decomposition of the ambient algebra under a weighted diagram."""

    h_theta: tuple[Fraction, ...]
    dim_by_level: dict[int, int]


@dataclass(frozen=True)
class Component:
    """One irreducible level-1 piece, attached to a circled node."""

    alpha: int
    roots: tuple[Root, ...]
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
    dims: dict[int, int] = {0: n}
    for r in rs.roots:
        lvl = degree(d, r)
        dims[lvl] = dims.get(lvl, 0) + 1
    return Grading(tuple(h), dict(sorted(dims.items())))


def components(d: WeightedDiagram) -> tuple[Component, ...]:
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
        out.append(Component(a, tuple(roots), j, hw))
    return tuple(out)
