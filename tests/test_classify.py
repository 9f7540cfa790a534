"""Pattern table, pattern-vs-oracle agreement, and the split of a diagram
across an adjacent circled pair, whose halves decide its regularity."""
from __future__ import annotations

import importlib
import itertools
import json
from pathlib import Path

import pytest

from pvlab.classify import MismatchError, classify, enumerate_reports, family_match
from pvlab.diagram import SimpleType, WeightedDiagram, parse_diagram, render_compact
from pvlab.pvcore import SubsetLattice, build_parabolic_pv, is_regular, restrict
from pvlab.rootsys import build_root_system

from _instances import SECOND_CATALOG_TYPES, SWEEP

classify_module = importlib.import_module("pvlab.classify")

DATA = Path(__file__).parent / "data"


def _match(text: str):
    return family_match(parse_diagram(text))


# ---------------------------------------------------------------------------
# the pattern table


# Explicit ids: the automatic ones end in the list index, so inserting a case
# renamed every later test.  These are the automatic ids as they stood; a
# new case takes its diagram text as its id.
@pytest.mark.parametrize("text,family,params", [
    pytest.param("A3[1,3]", "A", (0, 1, 0), id="A3[1,3]-A-params0"),
    pytest.param("A6[2,5]", "A", (1, 2, 1), id="A6[2,5]-A-params1"),
    pytest.param("B6[1,6]", "B", (0, 4, 0), id="B6[1,6]-B-params2"),
    pytest.param("B8[3,7]", "B", (2, 3, 1), id="B8[3,7]-B-params3"),
    pytest.param("C6[2,5]", "C", (1, 2, 1), id="C6[2,5]-C-params4"),
    pytest.param("C7[2,6]", "C", (1, 3, 1), id="C7[2,6]-C-params5"),
    pytest.param("C11[4,9]", "C", (3, 4, 2), id="C11[4,9]-C-params6"),
    pytest.param("D16[6,13]", "D1", (5, 6, 3), id="D16[6,13]-D1-params7"),
    pytest.param("D5[2,4]", "D2", (1, 2), id="D5[2,4]-D2-params8"),
    pytest.param("D5[2,5]", "D2", (1, 2), id="D5[2,5]-D2-params9"),
    pytest.param("D6[2,5,6]", "D3", (1, 2), id="D6[2,5,6]-D3-params10"),
    pytest.param("D7[2,6,7]", "D3", (1, 3), id="D7[2,6,7]-D3-params11"),
    pytest.param("E6[1,2]", "E6", (), id="E6[1,2]-E6-params12"),
    pytest.param("E6[2,6]", "E6", (), id="E6[2,6]-E6-params13"),
    pytest.param("E7[2,5]", "E7", (), id="E7[2,5]-E7-params14"),
    pytest.param("E8[1,2]", "E8", (), id="E8[1,2]-E8-params15"),
    pytest.param("D11[4,9]", "D1", (3, 4, 2), id="D11[4,9]-D1-params16"),
    pytest.param("D12[4,10]", "D1", (3, 5, 2), id="D12[4,10]-D1-params17"),
    pytest.param("D17[6,14]", "D1", (5, 7, 3), id="D17[6,14]-D1-params18"),
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


def test_family_match_reads_one_circle():
    # A single circle hits its type's "/1" row exactly when it is regular.
    hits = [_match(text) for text in ("A3[2]", "E7[3]")]
    assert [(m.family, m.params) for m in hits] == [("A/1", (1, 1)), ("E7/1", ())]
    assert _match("A3[1]") is None and _match("E6[1]") is None


def _automorphisms(t: SimpleType) -> list[dict[int, int]]:
    """The nontrivial diagram automorphisms of t, as maps of the nodes they move."""
    n = t.rank
    if t.family == "A":
        return [{i: n + 1 - i for i in range(1, n + 1)}]
    if t.family == "D" and n == 4:  # triality permutes the three outer nodes
        return [dict(zip((1, 3, 4), p)) for p in itertools.permutations((1, 3, 4))][1:]
    if t.family == "D":
        return [{n - 1: n, n: n - 1}]
    return [{1: 6, 6: 1, 3: 5, 5: 3}]  # E6


def test_family_match_is_invariant_under_diagram_automorphisms():
    # A diagram automorphism lifts to a graded automorphism of g, so a
    # circled set and its image give isomorphic PVs and must hit the same
    # row with the same blocks.  Every 1-, 2- and 3-circle diagram of A1-A30,
    # D4-D30 (with triality) and E6 is matched against each of its images.
    types = ([SimpleType("A", n) for n in range(1, 31)]
             + [SimpleType("D", n) for n in range(4, 31)] + [SimpleType("E", 6)])
    moved = 0
    for t in types:
        for sigma in _automorphisms(t):
            for size in (1, 2, 3):
                for circled in itertools.combinations(range(1, t.rank + 1), size):
                    image = tuple(sorted(sigma.get(a, a) for a in circled))
                    if image == circled:
                        continue
                    moved += 1
                    m1 = family_match(WeightedDiagram(t, circled))
                    m2 = family_match(WeightedDiagram(t, image))
                    assert (m1 is None) == (m2 is None), (str(t), circled, image)
                    if m1 is not None:
                        assert (m1.family, m1.params) == (m2.family, m2.params), (str(t), circled)
    assert moved == 44324


def test_oracle_verdicts_are_invariant_under_diagram_automorphisms():
    # The same lifted automorphism makes every exact verdict of a diagram
    # and its image agree, and with them the isotropy dimension and whether
    # a regular proper sum exists.  Each multi-circle diagram of A1-A8,
    # D4-D8 (with triality) and E6 runs at seed 0 and each of its images at
    # seed 1, so the two reports read different generic points.  Two
    # trialities that give a D4 diagram the same image count once.
    types = ([SimpleType("A", n) for n in range(1, 9)]
             + [SimpleType("D", n) for n in range(4, 9)] + [SimpleType("E", 6)])
    pairs = 0
    for t in types:
        for size in range(2, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                images = {tuple(sorted(sigma.get(a, a) for a in circled))
                          for sigma in _automorphisms(t)} - {circled}
                r1 = classify(WeightedDiagram(t, circled), "oracle", 0)
                for image in sorted(images):
                    pairs += 1
                    r2 = classify(WeightedDiagram(t, image), "oracle", 1)
                    assert r1.verdicts == r2.verdicts, (str(t), circled, image)
                    w1, w2 = r1.witnesses, r2.witnesses
                    assert w1.isotropy_dim == w2.isotropy_dim, (str(t), circled, image)
                    assert (w1.regular_gamma is None) == (w2.regular_gamma is None), (
                        str(t), circled, image)
    assert pairs == 712


# ---------------------------------------------------------------------------
# adjacent-circle splits


def _adjacent_split(d: WeightedDiagram) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The node sets on either side of the first adjacent circled pair
    (a, b): the nodes reached from a without crossing b, and from b without
    crossing a.  None when no two circled nodes are adjacent."""
    rs = build_root_system(d.type)
    pairs = [(a, b) for a, b in itertools.combinations(d.circled, 2) if b in rs.neighbors(a)]
    if not pairs:
        return None

    def side(start: int, cut: int) -> tuple[int, ...]:
        seen, todo = {start}, [start]
        while todo:
            for n in rs.neighbors(todo.pop()):
                if n != cut and n not in seen:
                    seen.add(n)
                    todo.append(n)
        return tuple(sorted(seen))

    a, b = pairs[0]
    return side(a, b), side(b, a)


def _components(d: WeightedDiagram, nodes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i, a in enumerate(d.circled) if a in nodes)


def test_adjacent_split_on_a_chain():
    d = parse_diagram("A4[2,3]")
    half1, half2 = _adjacent_split(d)
    assert (half1, half2) == ((1, 2), (3, 4))
    assert (_components(d, half1), _components(d, half2)) == ((0,), (1,))
    assert _adjacent_split(parse_diagram("D9[2,3,5,8]")) == ((1, 2), (3, 4, 5, 6, 7, 8, 9))


def test_adjacent_split_at_the_fork():
    # The pair (3, 4) cuts the fork tip 4 off; node 5 stays with node 3.
    assert _adjacent_split(parse_diagram("D5[3,4]")) == ((1, 2, 3, 5), (4,))
    assert _adjacent_split(parse_diagram("D5[3,4,5]")) == ((1, 2, 3, 5), (4,))


def test_adjacent_split_keeps_remote_circles():
    d = parse_diagram("A5[1,3,4]")
    half1, half2 = _adjacent_split(d)
    assert (_components(d, half1), _components(d, half2)) == ((0, 1), (2,))


def test_adjacent_split_requires_adjacent_circles():
    assert _adjacent_split(parse_diagram("A4[1,3]")) is None
    assert _adjacent_split(parse_diagram("D5[4,5]")) is None  # tips are not adjacent


@pytest.mark.parametrize("text", ["A4[2,3]", "B4[2,3]", "C4[1,2]", "D5[3,4]",
                                  "A5[1,3,4]"])
def test_split_halves_decide_regularity(text):
    # The halves decided by direct restriction; the sweep test below asks
    # the lattice, which reads them from their subdiagram pieces.
    d = parse_diagram(text)
    half1, half2 = _adjacent_split(d)
    pv = build_parabolic_pv(d)
    full = is_regular(pv).regular
    left = is_regular(restrict(pv, _components(d, half1))).regular
    right = is_regular(restrict(pv, _components(d, half2))).regular
    assert full == (left and right)


def test_split_halves_decide_regularity_over_the_sweep():
    # A diagram with an adjacent circled pair is regular exactly when both
    # halves across the pair are, as the lattice decides them from their
    # subdiagram pieces; so it is never Q-irreducible.
    split = 0
    for d in SWEEP:
        halves = _adjacent_split(d)
        if halves is None:
            continue
        lattice = SubsetLattice(build_parabolic_pv(d))
        left, right = (lattice.is_regular_sum(_components(d, h)) for h in halves)
        assert lattice.regular(lattice.full).regular == (left and right), render_compact(d)
        assert not lattice.q_irreducible(lattice.full), render_compact(d)
        split += 1
    assert split == 702


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
    assert (rep.family.family, rep.family.params) == ("A/1", (1, 1))
    assert rep.verdicts.regular and rep.verdicts.q_irreducible
    bad = classify(parse_diagram("A3[1]"))
    assert bad.verdicts.prehomogeneous and not bad.verdicts.regular
    assert not bad.verdicts.q_irreducible and bad.family is None
    # A row hit answers every verdict in pattern mode, as the oracle does.
    for family, rank in SINGLE_CIRCLE_TYPES:
        for node in range(1, rank + 1):
            d = WeightedDiagram(SimpleType(family, rank), (node,))
            rep = classify(d, "both", 0)
            v = rep.verdicts
            assert (rep.family is not None) == v.regular
            if v.regular:
                assert classify(d, "pattern").verdicts == v, d
            assert v.q_irreducible == v.completely_q_reducible == v.regular
            assert v.one_irreducible == (v.regular and v.n_invariants == 1)
            assert rep.witnesses.regular_gamma is None


def test_single_circle_rule_matches_the_oracle():
    # A single-circle diagram hits its "/1" row of the family table exactly
    # when it is regular: on every single-circle diagram of the sweep types
    # and of the second catalog's (Bourbaki numbering, as rootsys uses), the
    # row must equal the oracle, and classify(d, "both") must raise no
    # MismatchError.  scans/ extends the check to A-D at ranks 9-16.
    types = ([SimpleType("A", n) for n in range(1, 8)] + [SimpleType("B", n) for n in range(2, 8)]
             + [SimpleType("C", n) for n in range(3, 8)] + [SimpleType("D", n) for n in range(4, 8)]
             + [SimpleType("E", 6)] + SECOND_CATALOG_TYPES)
    checked = regular = 0
    for t in types:
        for k in range(1, t.rank + 1):
            d = WeightedDiagram(t, (k,))
            oracle = is_regular(build_parabolic_pv(d)).regular
            assert (family_match(d) is not None) == oracle, (str(t), k)
            assert classify(d, "both").verdicts.q_irreducible == oracle, (str(t), k)
            checked += 1
            regular += oracle
    assert (checked, regular) == (161, 85)


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
