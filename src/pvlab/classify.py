"""Q-irreducibility of weighted diagrams, by pattern and by oracle.

A weighted diagram with at least two circled nodes is Q-irreducible for
exactly nine families of circle placements.  The pattern path reads a
placement once, as a shape (two circles on a chain, a D tip with one
circle, the D fork, or an exceptional circle set) and its block profile
(the sizes of the uncircled stretches between and around the circles),
and looks the pair (type, shape) up in one row table, whose value is the
row's name and its condition on the blocks; so each family is matched up
to the diagram symmetry of its type, and the table reads like the
paper's.  The pattern path answers from that table alone; the oracle path
reads every verdict, for any number of circles, from one
:class:`~pvlab.pvcore.SubsetLattice` over the
:func:`~pvlab.pvcore.build_parabolic_pv` instance, and ``mode="both"``
cross-validates the two wherever the table has rows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import pvcore
from .diagram import DiagramError, WeightedDiagram, circled_adjacent_pairs, render_compact
from .rootsys import SimpleType, build_root_system, connected_components

__all__ = [
    "FamilyMatch",
    "Verdicts",
    "Witnesses",
    "ClassificationReport",
    "AdjacentSplit",
    "NoAdjacentCircles",
    "MismatchError",
    "family_match",
    "adjacent_split",
    "classify",
    "enumerate_reports",
    "MODES",
]

MODES = ("pattern", "oracle", "both")


class NoAdjacentCircles(DiagramError):
    pass


class MismatchError(Exception):
    """Pattern and oracle disagree; carries both sides' evidence."""

    def __init__(self, diagram: WeightedDiagram, family: FamilyMatch | None,
                 verdicts: Verdicts, witnesses: Witnesses) -> None:
        self.diagram = diagram
        self.family = family
        self.verdicts = verdicts
        self.witnesses = witnesses
        pattern = "hit " + family.family if family else "miss"
        super().__init__(
            f"{render_compact(diagram)}: pattern {pattern} vs oracle "
            f"q_irreducible={verdicts.q_irreducible}")


@dataclass(frozen=True)
class FamilyMatch:
    """A hit in the table of non-irreducible Q-irreducible families.

    ``params`` are the block sizes read off the diagram (empty for the
    three exceptional rows, whose circle sets are fixed).
    """

    family: str
    params: tuple[int, ...]
    diagram: WeightedDiagram


@dataclass(frozen=True)
class Verdicts:
    """The six verdict slots; ``None`` where the method cannot tell."""

    prehomogeneous: bool | None
    regular: bool | None
    n_invariants: int | None
    one_irreducible: bool | None
    q_irreducible: bool
    completely_q_reducible: bool | None


@dataclass(frozen=True)
class Witnesses:
    """Oracle evidence: the point used, a regular proper component sum
    (as circled-node labels), and the isotropy form determinant."""

    generic_point: tuple[int, ...] | None
    regular_gamma: tuple[int, ...] | None
    isotropy_dim: int | None
    form_determinant: Fraction | None


_NO_WITNESSES = Witnesses(None, None, None, None)


@dataclass(frozen=True)
class ClassificationReport:
    diagram: WeightedDiagram
    verdicts: Verdicts
    family: FamilyMatch | None
    witnesses: Witnesses
    method: str
    seed: int


# ---------------------------------------------------------------------------
# pattern table


def _profile(d: WeightedDiagram) -> tuple[object, tuple[int, ...]]:
    """The circle placement's shape and its uncircled block sizes.

    ``"chain"``: two circles and no D tip, blocks (before, between, after)
    on 1..n.  ``"tip"``: in D, one tip and one circle c <= n-2, blocks
    (c-1, n-1-c).  ``"fork"``: in D, the circles {2, n-1, n}, blocks
    (1, n-4).  An exceptional type's shape is its circle set, with no
    blocks.  Any other placement has shape None.
    """
    n, c, family = d.type.rank, d.circled, d.type.family
    if family not in "ABCD":
        return c, ()
    if family == "D" and c == (2, n - 1, n):
        return "fork", (1, n - 4)
    tips = [a for a in c if family == "D" and a >= n - 1]
    if len(c) == 2 and not tips:
        return "chain", (c[0] - 1, c[1] - c[0] - 1, n - c[1])
    if len(c) == 2 and len(tips) == 1:
        return "tip", (c[0] - 1, n - 1 - c[0])
    return None, ()


# (type, shape) -> (row, condition on the blocks).  A classical row holds
# for every rank, so it is keyed by the family letter; an exceptional row
# by the type itself.
_ROWS = {
    ("A", "chain"): ("A", lambda p1, p2, p3: p1 == p3 and p2 > p1),
    ("B", "chain"): ("B", lambda p1, p2, p3: p2 > p1 and 2 * p3 == p1),
    # No parity condition on p2: both parities verify as Q-irreducible
    # (e.g. C6[2,5] with p2 = 2 and C7[2,6] with p2 = 3).
    ("C", "chain"): ("C", lambda p1, p2, p3: p2 > p1 and 2 * p3 == p1 + 1),
    # D1 has C's condition: with m = p1+1 and k = p2+1, V = M_{m x k} +
    # M_{k x 2p3} under GL_m x GL_k x SO_{2p3} has generic isotropy
    # GL_{k-m} x SO_m whenever 2p3 = m < k, whatever the parity of p2, and
    # at p3 = 2 the tail D2 at the fork acts as SO_4.
    ("D", "chain"): ("D1", lambda p1, p2, p3: p2 > p1 and 2 * p3 == p1 + 1),
    ("D", "tip"): ("D2", lambda p1, p2: p1 == p2 - 1 and p2 % 2 == 0),
    ("D", "fork"): ("D3", lambda p1, p2: p2 > 1),
    ("E6", (1, 2)): ("E6", lambda: True),
    ("E6", (2, 6)): ("E6", lambda: True),
    ("E7", (2, 5)): ("E7", lambda: True),
    ("E8", (1, 2)): ("E8", lambda: True),
}


def family_match(d: WeightedDiagram) -> FamilyMatch | None:
    """The family row matched by ``d``, or None.

    Only non-irreducible diagrams are tabulated, so at least two circled
    nodes are required.
    """
    if len(d.circled) < 2:
        raise ValueError("family_match needs at least two circled nodes")
    family = d.type.family
    shape, blocks = _profile(d)
    row = _ROWS.get((family if family in "ABCD" else str(d.type), shape))
    return FamilyMatch(row[0], blocks, d) if row and row[1](*blocks) else None


# ---------------------------------------------------------------------------
# adjacent-circle split


class AdjacentSplit(NamedTuple):
    """The two halves around the first adjacent circled pair.

    ``psi1``/``psi2`` are the node sets of the connected halves (each keeps
    one circle of the pair); ``gamma1``/``gamma2`` their circled nodes; the
    ``components*`` tuples index the level-1 components of the full
    instance, so restricting to them realizes each half under the same
    acting algebra.
    """

    pair: tuple[int, int]
    psi1: tuple[int, ...]
    psi2: tuple[int, ...]
    gamma1: tuple[int, ...]
    gamma2: tuple[int, ...]
    components1: tuple[int, ...]
    components2: tuple[int, ...]


def adjacent_split(d: WeightedDiagram) -> AdjacentSplit:
    """Split around the first (lowest) pair of adjacent circled nodes.

    The instance is regular exactly when both component restrictions are
    (so a Q-irreducible diagram never has two adjacent circles).  Nothing
    in classification calls this; it is an equivalence the tests check
    against the regularity oracle.
    """
    pairs = circled_adjacent_pairs(d)
    if not pairs:
        raise NoAdjacentCircles(render_compact(d))
    a1, a2 = pairs[0]
    rs = build_root_system(d.type)
    nodes = list(range(1, d.type.rank + 1))

    def half(keep: int, drop: int) -> tuple[int, ...]:
        for comp, _ in connected_components(rs, [x for x in nodes if x != drop]):
            if keep in comp:
                return comp
        raise AssertionError("node vanished from its own diagram")

    psi1 = half(a1, a2)
    psi2 = half(a2, a1)
    gamma1 = tuple(a for a in d.circled if a in psi1)
    gamma2 = tuple(a for a in d.circled if a in psi2)
    comps1 = tuple(i for i, a in enumerate(d.circled) if a in psi1)
    comps2 = tuple(i for i, a in enumerate(d.circled) if a in psi2)
    return AdjacentSplit((a1, a2), psi1, psi2, gamma1, gamma2, comps1, comps2)


# ---------------------------------------------------------------------------
# classification


def _oracle_verdicts(d: WeightedDiagram, seed: int) -> tuple[Verdicts, Witnesses]:
    lattice = pvcore.SubsetLattice(pvcore.build_parabolic_pv(d), seed)
    q = lattice.q_irreducibility()
    rep = q.regularity
    verdicts = Verdicts(
        prehomogeneous=rep.prehomogeneous,
        regular=rep.regular,
        n_invariants=rep.n_fundamental_invariants,
        one_irreducible=q.q_irreducible and rep.n_fundamental_invariants == 1,
        q_irreducible=q.q_irreducible,
        completely_q_reducible=lattice.completely_q_reducible(lattice.full),
    )
    gamma = tuple(d.circled[i] for i in q.witness) if q.witness else None
    witnesses = Witnesses(
        generic_point=rep.generic_point.vector,
        regular_gamma=gamma,
        isotropy_dim=rep.isotropy_dim,
        form_determinant=rep.form_determinant,
    )
    return verdicts, witnesses


def _pattern_verdicts(match: FamilyMatch | None) -> Verdicts:
    if match is None:
        return Verdicts(None, None, None, False, False, None)
    return Verdicts(True, True, 1, True, True, True)


def classify(d: WeightedDiagram, mode: str = "both", seed: int = 0) -> ClassificationReport:
    """Full verdicts for one diagram.

    ``oracle`` reads every verdict from the subset lattice of the built
    instance; ``both`` does the same and raises :class:`MismatchError` if
    the family table disagrees; ``pattern`` answers from the table alone.
    The table lists only multi-circle diagrams, so a single-circle diagram
    takes the oracle path in every mode (its ``pattern`` report is labelled
    ``method="oracle"``), and its one component makes Q-irreducible and
    completely Q-reducible both mean regular.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    irreducible = len(d.circled) == 1
    match = None if irreducible else family_match(d)
    if mode == "pattern" and not irreducible:
        return ClassificationReport(d, _pattern_verdicts(match), match, _NO_WITNESSES,
                                    "pattern", seed)
    verdicts, witnesses = _oracle_verdicts(d, seed)
    if mode == "both" and not irreducible and (match is not None) != verdicts.q_irreducible:
        raise MismatchError(d, match, verdicts, witnesses)
    method = "oracle" if mode == "pattern" else mode
    return ClassificationReport(d, verdicts, match, witnesses, method, seed)


def enumerate_reports(types: Iterable[SimpleType], mode: str = "both", seed: int = 0,
                      include_irreducible: bool = False) -> list[ClassificationReport]:
    """One report per circled subset of each type, in deterministic order.

    Subsets run by size then lexicographically; sizes start at 2 unless
    ``include_irreducible`` adds the single-circle diagrams first.
    """
    reports = []
    for t in types:
        nodes = range(1, t.rank + 1)
        low = 1 if include_irreducible else 2
        for size in range(low, t.rank + 1):
            for subset in itertools.combinations(nodes, size):
                reports.append(classify(WeightedDiagram(t, subset), mode, seed))
    return reports
