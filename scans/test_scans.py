"""Family-table scans beyond tier-1, for a separate CI job.

Every diagram of each scan is classified in ``mode="both"`` at seed 0, so a
disagreement between the family table and the oracle raises
``MismatchError``; the Q-irreducible hits must also equal the rows of
``tests/data/family_rows.json`` of the scan's type and circle count.  The
scans cover rank 9 of A-D with any number of circles, the two-circle
diagrams of the ranks where the A, B, C and D1 rows grow new members, up to
rank 16 and A20, and the three-circle diagrams of D10, D11 and D16, where
the D3 row sits.

The sl2-triple of every regular report of the second catalog (rank 8 of
A-D, E7, E8, F4, G2) is checked here too, with the helpers the tier-1 check
on the sweep uses.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q scans``.
This directory lies outside the tier-1 ``testpaths``.
"""
from __future__ import annotations

import itertools
import json
import sys
from operator import mul
from pathlib import Path

import pytest

from pvlab.classify import classify
from pvlab.diagram import WeightedDiagram, parse_diagram
from pvlab.pvcore import build_parabolic_pv, is_regular
from pvlab.rootsys import SimpleType

sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))
from _instances import SECOND_CATALOG_TYPES, grading_pairing, sl2_triple_neutral  # noqa: E402

# (type, circle count or None for every count >= 2).
SCANS = [("A9", None), ("B9", None), ("C9", None), ("D9", None),
         ("A10", 2), ("B10", 2), ("C10", 2), ("D10", 2), ("A12", 2), ("B11", 2), ("C11", 2),
         ("A13", 2), ("B12", 2), ("C12", 2), ("D11", 2), ("D12", 2),
         ("A16", 2), ("B16", 2), ("C16", 2), ("D16", 2), ("A20", 2),
         ("D10", 3), ("D11", 3), ("D16", 3)]

FROZEN = [parse_diagram(row[0]) for row in
          json.loads((Path(__file__).parents[1] / "tests/data/family_rows.json").read_text())]


@pytest.mark.parametrize("name,size", SCANS, ids=[f"{n}-{s or 'all'}" for n, s in SCANS])
def test_scan_hits_are_frozen(name, size):
    t = SimpleType(name[0], int(name[1:]))
    sizes = range(2, t.rank + 1) if size is None else (size,)
    hits = []
    for k in sizes:
        for circled in itertools.combinations(range(1, t.rank + 1), k):
            rep = classify(WeightedDiagram(t, circled), mode="both", seed=0)
            if rep.verdicts.q_irreducible:
                hits.append(rep.diagram)
    assert hits == [d for d in FROZEN if d.type == t and len(d.circled) in sizes]


def test_second_catalog_regular_reports_carry_an_sl2_triple():
    # y = 2 M^-1 x and H = [x, y] satisfy [[x, y], x] = 2x and [H, y] = -2y
    # exactly on every regular report of the second catalog at seed 0, and
    # H = H_0 exactly when the grading element's Killing pairing vanishes on
    # every isotropy vector.
    regular, neutral = 0, 0
    for t in SECOND_CATALOG_TYPES:
        for size in range(2, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                d = WeightedDiagram(t, circled)
                pv = build_parabolic_pv(d)
                report = is_regular(pv)
                if report.regular:
                    w = grading_pairing(d)
                    # w . a[:rank]: map stops at w's end, the Cartan coordinates
                    pairs_to_zero = all(sum(map(mul, w, a)) == 0 for a in report.isotropy_basis)
                    assert pairs_to_zero == sl2_triple_neutral(pv, report.generic_point), d
                    regular += 1
                    neutral += pairs_to_zero
    assert (regular, neutral) == (389, 138)
