"""Q-irreducibility of weighted diagrams, by pattern and by oracle.

A weighted diagram is Q-irreducible exactly when its circle placement is
a row of one table: a single circle whose irreducible PV is regular, or
one of nine families of two or more circles.  The pattern path reads a
placement once, as a shape (one circle, two circles on a chain, a D tip
with one circle, the D fork, or an exceptional circle set) and its block
profile (the sizes of the uncircled stretches between and around the
circles), and looks the pair (type, shape) up in the table, whose value is
the row's name and its condition on the blocks; so each family is matched
up to the diagram symmetry of its type, and the table reads like the
paper's.  The pattern path answers from that table alone; the oracle path
reads every verdict from one :class:`~pvlab.pvcore.SubsetLattice` over the
:func:`~pvlab.pvcore.build_parabolic_pv` instance, and ``mode="both"``
cross-validates the two on every diagram.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import pvcore
from .diagram import WeightedDiagram, render_compact
from .rootsys import SimpleType

__all__ = [
    "FamilyMatch",
    "Verdicts",
    "Witnesses",
    "ClassificationReport",
    "MismatchError",
    "family_match",
    "classify",
    "enumerate_reports",
    "MODES",
]

MODES = ("pattern", "oracle", "both")


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
    """A hit in the table of Q-irreducible circle placements.

    ``params`` are the block sizes read off the diagram (empty for the
    exceptional rows, whose circle sets are fixed).
    """

    family: str
    params: tuple[int, ...]


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

    ``"single"``: one circle k, blocks (k-1, n-k), with k = n for a D tip
    and its D4 triality images.  ``"chain"``: two circles and no D tip,
    blocks (before, between, after) on 1..n.  ``"tip"``: in D, one tip and
    one circle c <= n-2, blocks (c-1, n-1-c).  ``"fork"``: in D, the
    circles {2, n-1, n}, blocks (1, n-4).  An exceptional type's shape is
    its circle set, with no blocks.  Any other placement has shape None.
    """
    n, c, family = d.type.rank, d.circled, d.type.family
    if family not in "ABCD":
        return c, ()
    if len(c) == 1:
        k = n if family == "D" and (c[0] >= n - 1 or n == 4 and c[0] == 1) else c[0]
        return "single", (k - 1, n - k)
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
# by the type itself.  A single-circle row, named "/1", holds exactly when
# the circle's one level-1 module is a regular PV.
_ROWS = {
    ("A", "single"): ("A/1", lambda p1, p2: p1 == p2),
    ("B", "single"): ("B/1", lambda p1, p2: p1 <= 2 * p2),
    ("C", "single"): ("C/1", lambda p1, p2: p2 == 0 or p1 % 2 == 1 and p1 < 2 * p2),
    ("D", "single"): ("D/1", lambda p1, p2: p2 == 0 and p1 % 2 == 1 or p1 < 2 * p2),
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
# The exceptional single circles are the oracle's output over every node,
# not yet compared with Rubenthaler's list.
_ROWS.update({(t, (k,)): (t + "/1", lambda: True) for t, nodes in (
    ("E6", (2, 4)), ("E7", range(1, 8)), ("E8", (1, 2, 5, 6, 7, 8)), ("F4", (1, 2, 4)),
    ("G2", (1,))) for k in nodes})


def family_match(d: WeightedDiagram) -> FamilyMatch | None:
    """The family row matched by ``d``, or None, for any number of circles."""
    family = d.type.family
    shape, blocks = _profile(d)
    row = _ROWS.get((family if family in "ABCD" else str(d.type), shape))
    return FamilyMatch(row[0], blocks) if row and row[1](*blocks) else None


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
        generic_point=rep.generic_point,
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
    A single-circle diagram has one component, so Q-irreducible and
    completely Q-reducible both mean regular.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    match = family_match(d)
    if mode == "pattern":
        return ClassificationReport(d, _pattern_verdicts(match), match,
                                    Witnesses(None, None, None, None), "pattern", seed)
    verdicts, witnesses = _oracle_verdicts(d, seed)
    if mode == "both" and (match is not None) != verdicts.q_irreducible:
        raise MismatchError(d, match, verdicts, witnesses)
    return ClassificationReport(d, verdicts, match, witnesses, mode, seed)


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
