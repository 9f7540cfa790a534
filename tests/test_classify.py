"""Pattern table, adjacent-circle splits, and pattern-vs-oracle agreement."""
from __future__ import annotations

import importlib
import itertools
import json
from pathlib import Path

import pytest

from pvlab.classify import (MismatchError, NoAdjacentCircles, adjacent_split,
                            classify, enumerate_reports, family_match)
from pvlab.diagram import SimpleType, WeightedDiagram, parse_diagram, render_compact
from pvlab.pvcore import build_parabolic_pv, is_regular, restrict

classify_module = importlib.import_module("pvlab.classify")

DATA = Path(__file__).parent / "data"


def _match(text: str):
    return family_match(parse_diagram(text))


# ---------------------------------------------------------------------------
# the pattern table


@pytest.mark.parametrize("text,family,params", [
    ("A3[1,3]", "A", (0, 1, 0)),
    ("A6[2,5]", "A", (1, 2, 1)),
    ("B6[1,6]", "B", (0, 4, 0)),
    ("B8[3,7]", "B", (2, 3, 1)),
    ("C6[2,5]", "C", (1, 2, 1)),
    ("C7[2,6]", "C", (1, 3, 1)),
    ("C11[4,9]", "C", (3, 4, 2)),
    ("D16[6,13]", "D1", (5, 6, 3)),
    ("D5[2,4]", "D2", (1, 2)),
    ("D5[2,5]", "D2", (1, 2)),
    ("D6[2,5,6]", "D3", (1, 2)),
    ("D7[2,6,7]", "D3", (1, 3)),
    ("E6[1,2]", "E6", ()),
    ("E6[2,6]", "E6", ()),
    ("E7[2,5]", "E7", ()),
    ("E8[1,2]", "E8", ()),
    ("D11[4,9]", "D1", (3, 4, 2)),
    ("D12[4,10]", "D1", (3, 5, 2)),
    ("D17[6,14]", "D1", (5, 7, 3)),
])
def test_family_hits(text, family, params):
    m = _match(text)
    assert m is not None and (m.family, m.params) == (family, params)


@pytest.mark.parametrize("text", [
    "A5[2,4]",      # middle block not larger than the flanks
    "A4[1,3]",      # asymmetric flanks
    "B5[2,4]",      # tail is not half the head
    "C10[3,8]",     # tail off by one
    "C5[2,5]",      # last node circled
    "C3[1,2]",      # adjacent circles
    "D13[4,9]",     # tail vs head mismatch
    "D16[6,14]",    # second circle at the fork, tail vs head mismatch
    "D16[6,13,16]", # three circles but not the fork row
    "D6[2,5]",      # tip circled with the wrong chain offset
    "D6[3,5]",      # p2 odd in the tip row
    "E6[1,3]",
    "E6[1,6]",
    "E7[1,2]",
    "E8[2,5]",
    "F4[1,2]",
    "G2[1,2]",
])
def test_family_misses(text):
    assert _match(text) is None


# Every 2- and 3-circle diagram of these types: 29,440 diagrams.
ROW_GUARD_TYPES = ([SimpleType("A", n) for n in range(1, 21)]
                   + [SimpleType("B", n) for n in range(2, 21)]
                   + [SimpleType("C", n) for n in range(3, 21)]
                   + [SimpleType("D", n) for n in range(4, 21)]
                   + [SimpleType("E", n) for n in (6, 7, 8)]
                   + [SimpleType("F", 4), SimpleType("G", 2)])


def test_family_rows_are_frozen():
    # tests/data/family_rows.json lists every (diagram, row, params) hit of
    # the table over the guard range; the table must reproduce it exactly.
    hits, count = [], 0
    for t in ROW_GUARD_TYPES:
        for size in (2, 3):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                d = WeightedDiagram(t, circled)
                count += 1
                m = family_match(d)
                if m is not None:
                    hits.append([render_compact(d), m.family, list(m.params)])
    assert count == 29440
    assert hits == json.loads((DATA / "family_rows.json").read_text())


def test_family_match_requires_two_circles():
    with pytest.raises(ValueError):
        _match("A3[1]")


def test_a_row_is_reversal_invariant():
    n = 5
    for c1, c2 in itertools.combinations(range(1, n + 1), 2):
        fwd = _match(f"A{n}[{c1},{c2}]")
        rev = _match(f"A{n}[{n + 1 - c2},{n + 1 - c1}]")
        assert (fwd is None) == (rev is None)
        if fwd is not None:
            assert fwd.params == rev.params


def test_d_rows_are_tip_swap_invariant():
    t = SimpleType("D", 5)
    swap = {4: 5, 5: 4}
    for size in (2, 3):
        for subset in itertools.combinations(range(1, 6), size):
            mirrored = tuple(sorted(swap.get(a, a) for a in subset))
            m1 = family_match(WeightedDiagram(t, subset))
            m2 = family_match(WeightedDiagram(t, mirrored))
            assert (m1 is None) == (m2 is None), subset
            if m1 is not None:
                assert m1.params == m2.params


def test_e6_rows_respect_the_mirror():
    mirror = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    t = SimpleType("E", 6)
    for subset in itertools.combinations(range(1, 7), 2):
        mirrored = tuple(sorted(mirror[a] for a in subset))
        m1 = family_match(WeightedDiagram(t, subset))
        m2 = family_match(WeightedDiagram(t, mirrored))
        assert (m1 is None) == (m2 is None), subset


# ---------------------------------------------------------------------------
# adjacent-circle splits


def test_adjacent_split_on_a_chain():
    s = adjacent_split(parse_diagram("A4[2,3]"))
    assert s.pair == (2, 3)
    assert s.psi1 == (1, 2) and s.psi2 == (3, 4)
    assert s.gamma1 == (2,) and s.gamma2 == (3,)
    assert s.components1 == (0,) and s.components2 == (1,)


def test_adjacent_split_at_the_fork():
    s = adjacent_split(parse_diagram("D5[3,4]"))
    assert s.pair == (3, 4)
    assert s.psi2 == (4,)
    assert set(s.psi1) == {1, 2, 3, 5}


def test_adjacent_split_keeps_remote_circles():
    s = adjacent_split(parse_diagram("A5[1,3,4]"))
    assert s.pair == (3, 4)
    assert s.gamma1 == (1, 3)
    assert s.components1 == (0, 1)


def test_adjacent_split_requires_adjacent_circles():
    with pytest.raises(NoAdjacentCircles):
        adjacent_split(parse_diagram("A4[1,3]"))
    with pytest.raises(NoAdjacentCircles):
        adjacent_split(parse_diagram("D5[4,5]"))  # tips are not adjacent


@pytest.mark.parametrize("text", ["A4[2,3]", "B4[2,3]", "C4[1,2]", "D5[3,4]",
                                  "A5[1,3,4]"])
def test_split_halves_decide_regularity(text):
    d = parse_diagram(text)
    s = adjacent_split(d)
    pv = build_parabolic_pv(d)
    full = is_regular(pv).regular
    left = is_regular(restrict(pv, s.components1)).regular
    right = is_regular(restrict(pv, s.components2)).regular
    assert full == (left and right)


# ---------------------------------------------------------------------------
# classify


def test_classify_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        classify(parse_diagram("A3[1,3]"), mode="guess")


def test_classify_pattern_mode_has_no_witnesses():
    rep = classify(parse_diagram("A3[1,3]"), mode="pattern")
    assert rep.method == "pattern"
    assert rep.family is not None
    assert rep.verdicts.q_irreducible
    assert rep.witnesses.generic_point is None


def test_classify_oracle_fills_witnesses():
    rep = classify(parse_diagram("A3[1,3]"), mode="oracle")
    v, w = rep.verdicts, rep.witnesses
    assert (v.prehomogeneous, v.regular, v.n_invariants) == (True, True, 1)
    assert v.q_irreducible and v.one_irreducible and v.completely_q_reducible
    assert w.generic_point is not None
    assert w.isotropy_dim == 1
    assert w.regular_gamma is None  # no proper regular sum exists


def test_classify_records_reducibility_witness():
    rep = classify(parse_diagram("F4[1,2]"), mode="oracle")
    assert not rep.verdicts.q_irreducible
    assert rep.verdicts.regular
    assert rep.verdicts.completely_q_reducible
    assert rep.witnesses.regular_gamma in ((1,), (2,))


SINGLE_CIRCLE_TYPES = ([("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 6)]
                       + [("C", n) for n in range(3, 6)] + [("D", 4), ("D", 5)]
                       + [("E", 6), ("F", 4), ("G", 2)])


def test_classify_single_circle_q_verdicts_mean_regular():
    rep = classify(parse_diagram("A3[2]"))
    assert rep.family is None
    assert rep.verdicts.regular and rep.verdicts.q_irreducible
    bad = classify(parse_diagram("A3[1]"))
    assert bad.verdicts.prehomogeneous and not bad.verdicts.regular
    assert not bad.verdicts.q_irreducible
    for family, rank in SINGLE_CIRCLE_TYPES:
        for node in range(1, rank + 1):
            rep = classify(WeightedDiagram(SimpleType(family, rank), (node,)), "both", 0)
            v = rep.verdicts
            assert rep.family is None
            assert v.q_irreducible == v.completely_q_reducible == v.regular
            assert v.one_irreducible == (v.regular and v.n_invariants == 1)
            assert rep.witnesses.regular_gamma is None


def test_classify_both_raises_on_planted_disagreement(monkeypatch):
    d = parse_diagram("C6[2,5]")
    monkeypatch.setattr(classify_module, "family_match", lambda _: None)
    with pytest.raises(MismatchError) as exc:
        classify(d, mode="both")
    assert "pattern miss" in str(exc.value)
    assert exc.value.verdicts.q_irreducible
    assert exc.value.family is None


def test_classify_seed_changes_point_not_verdict():
    a = classify(parse_diagram("B3[1,3]"), seed=1)
    b = classify(parse_diagram("B3[1,3]"), seed=2)
    assert a.verdicts == b.verdicts
    assert a.witnesses.generic_point != b.witnesses.generic_point


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_counts_subsets():
    assert len(enumerate_reports([SimpleType("A", 3)], mode="pattern")) == 4
    assert len(enumerate_reports([SimpleType("A", 4)], mode="pattern")) == 11
    assert len(enumerate_reports([SimpleType("E", 6)], mode="pattern")) == 57


def test_enumerate_order_is_size_then_lex():
    reports = enumerate_reports([SimpleType("A", 3)], mode="pattern",
                                include_irreducible=True)
    assert [r.diagram.circled for r in reports] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def test_enumerate_pattern_hits_for_e6():
    reports = enumerate_reports([SimpleType("E", 6)], mode="pattern")
    hits = sorted(r.diagram.circled for r in reports if r.family is not None)
    assert hits == [(1, 2), (2, 6)]


def test_oracle_hierarchy_on_small_types():
    for rep in enumerate_reports([SimpleType("A", 4), SimpleType("B", 3)],
                                 mode="oracle"):
        v = rep.verdicts
        if v.q_irreducible:
            assert v.regular and v.n_invariants == 1 and v.one_irreducible
        if v.regular:
            assert v.prehomogeneous
        assert v.completely_q_reducible == (v.regular and
                                            (v.q_irreducible
                                             or rep.witnesses.regular_gamma is not None))


def test_exceptional_row_verdict():
    rep = classify(parse_diagram("E7[2,5]"), mode="both")
    assert rep.family is not None and rep.family.family == "E7"
    assert rep.verdicts.q_irreducible
    assert rep.witnesses.isotropy_dim == 9
