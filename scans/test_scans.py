"""Family-table scans beyond tier-1, for a separate CI job.

Every diagram of each scan is classified in ``mode="both"`` at seed 0, so a
disagreement between the family table and the oracle raises
``MismatchError``; the Q-irreducible hits must also equal the frozen list.
The scans cover rank 9 of A-D with any number of circles, the two-circle
diagrams of the ranks where the A, B, C and D1 rows grow new members, and
the three-circle diagrams of D10 and D11, where the D3 row sits.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q scans``.
This directory lies outside the tier-1 ``testpaths``.
"""
from __future__ import annotations

import itertools

import pytest

from pvlab.classify import classify
from pvlab.diagram import WeightedDiagram, render_compact
from pvlab.rootsys import SimpleType

# (type, circle count or None for every count >= 2) -> frozen hits.
SCANS = {
    ("A9", None): ["A9[1,9]", "A9[2,8]", "A9[3,7]"],
    ("B9", None): ["B9[1,9]", "B9[3,8]"],
    ("C9", None): ["C9[2,8]"],
    ("D9", None): ["D9[4,8]", "D9[4,9]", "D9[2,8,9]"],
    ("A10", 2): ["A10[1,10]", "A10[2,9]", "A10[3,8]"],
    ("B10", 2): ["B10[1,10]", "B10[3,9]"],
    ("C10", 2): ["C10[2,9]"],
    ("D10", 2): [],
    ("A12", 2): ["A12[1,12]", "A12[2,11]", "A12[3,10]", "A12[4,9]"],
    ("B11", 2): ["B11[1,11]", "B11[3,10]"],
    ("C11", 2): ["C11[2,10]", "C11[4,9]"],
    ("A13", 2): ["A13[1,13]", "A13[2,12]", "A13[3,11]", "A13[4,10]"],
    ("B12", 2): ["B12[1,12]", "B12[3,11]"],
    ("C12", 2): ["C12[2,11]", "C12[4,10]"],
    ("D11", 2): ["D11[4,9]"],
    ("D12", 2): ["D12[4,10]"],
    ("D10", 3): ["D10[2,9,10]"],
    ("D11", 3): ["D11[2,10,11]"],
}


@pytest.mark.parametrize("name,size", list(SCANS), ids=[f"{n}-{s or 'all'}" for n, s in SCANS])
def test_scan_hits_are_frozen(name, size):
    t = SimpleType(name[0], int(name[1:]))
    sizes = range(2, t.rank + 1) if size is None else (size,)
    hits = []
    for k in sizes:
        for circled in itertools.combinations(range(1, t.rank + 1), k):
            rep = classify(WeightedDiagram(t, circled), mode="both", seed=0)
            if rep.verdicts.q_irreducible:
                hits.append(render_compact(rep.diagram))
    assert hits == SCANS[name, size]
