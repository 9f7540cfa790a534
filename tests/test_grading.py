"""Gradings: H_theta, level dimensions, level-1 components, and the length rule."""
from __future__ import annotations

import itertools

import pytest

from pvlab.chevalley import chevalley_basis
from pvlab.diagram import WeightedDiagram, parse_diagram
from pvlab.grading import components, compute_grading, degree
from pvlab.rootsys import SimpleType, build_root_system

from _instances import length_rule, simple_root

# Level dimension profiles frozen from an independent root-enumeration pass.
LEVELS = {
    "A3[1,3]": {0: 5, 1: 4, 2: 1},
    "F4[1,2]": {0: 10, 1: 7, 2: 6, 3: 6, 4: 1, 5: 1},
    "E6[1,2]": {0: 26, 1: 15, 2: 10, 3: 1},
    "E8[1,7]": {0: 50, 1: 36, 2: 33, 3: 18, 4: 10, 5: 2},
    "D9[2,3,5,8]": {0: 25, 1: 18, 2: 16, 3: 13, 4: 10, 5: 4, 6: 2, 7: 1},
}


@pytest.mark.parametrize("text", sorted(LEVELS))
def test_level_dimensions(text):
    g = compute_grading(parse_diagram(text))
    expected = dict(LEVELS[text])
    expected.update({-k: v for k, v in LEVELS[text].items() if k})
    assert g.dim_by_level == expected


def test_h_theta_eigenvalues():
    d = parse_diagram("D9[2,3,5,8]")
    for i in range(1, 10):
        alpha = simple_root(9, i)
        assert degree(d, alpha) == (1 if i in d.circled else 0)


# Every circled subset of the sweep types, and the single circles of the
# other exceptional types.
GRADED = ([WeightedDiagram(t, circled)
           for t in ([SimpleType("A", n) for n in range(1, 8)]
                     + [SimpleType("B", n) for n in range(2, 8)]
                     + [SimpleType("C", n) for n in range(3, 8)]
                     + [SimpleType("D", n) for n in range(4, 8)]
                     + [SimpleType("E", 6)])
           for size in range(1, t.rank + 1)
           for circled in itertools.combinations(range(1, t.rank + 1), size)]
          + [WeightedDiagram(t, (i,))
             for t in (SimpleType("E", 7), SimpleType("E", 8), SimpleType("F", 4),
                       SimpleType("G", 2))
             for i in range(1, t.rank + 1)])


def test_grading_element_takes_2_at_circled_nodes():
    # h_theta solves C h = 2 [i circled] exactly: the simple root alpha_i
    # takes sum_j C[i][j] h[j] on it.
    for d in GRADED:
        cartan = build_root_system(d.type).cartan
        h = compute_grading(d).h_theta
        for i, row in enumerate(cartan, start=1):
            assert sum(c * v for c, v in zip(row, h)) == (2 if i in d.circled else 0), d


def test_degree_is_coefficient_sum():
    d = parse_diagram("F4[1,2]")
    rs = build_root_system(d.type)
    for root in rs.roots:
        assert degree(d, root) == root[0] + root[1]


def test_degree_additive_on_root_sums():
    d = parse_diagram("E6[1,2]")
    rs = build_root_system(d.type)
    roots = set(rs.roots)
    for a in rs.positive[:30]:
        for b in rs.positive[:30]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in roots:
                assert degree(d, s) == degree(d, a) + degree(d, b)


def test_levels_symmetric_and_sum_to_dim():
    for t in (SimpleType("A", 3), SimpleType("B", 3), SimpleType("D", 4),
              SimpleType("G", 2)):
        rs = build_root_system(t)
        dim_g = len(rs.roots) + t.rank
        for size in range(1, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                g = compute_grading(WeightedDiagram(t, circled))
                assert sum(g.dim_by_level.values()) == dim_g
                for level, d in g.dim_by_level.items():
                    assert g.dim_by_level[-level] == d


def _level_roots(d: WeightedDiagram, level: int) -> list:
    """All roots at a given level, in root-system order."""
    return [r for r in build_root_system(d.type).roots if degree(d, r) == level]


def test_level_roots_match_grading():
    d = parse_diagram("E6[1,2]")
    g = compute_grading(d)
    for level in (1, 2, 3):
        assert len(_level_roots(d, level)) == g.dim_by_level[level]


# ---------------------------------------------------------------------------
# level-1 components

COMPONENT_DIMS = {
    "A3[1,3]": {1: 2, 3: 2},
    "F4[1,2]": {1: 1, 2: 6},
    "E6[1,2]": {1: 5, 2: 10},
    "E8[1,7]": {1: 16, 7: 20},
    "D9[2,3,5,8]": {2: 2, 3: 2, 5: 8, 8: 6},
}


@pytest.mark.parametrize("text", sorted(COMPONENT_DIMS))
def test_component_dimensions(text):
    comps = components(parse_diagram(text))
    assert {c.alpha: len(c.roots) for c in comps} == COMPONENT_DIMS[text]


def test_components_partition_level_one():
    for text in ("B5[2,4]", "C6[2,5]", "D7[1,4,6]"):
        d = parse_diagram(text)
        comps = components(d)
        assert [c.alpha for c in comps] == list(d.circled)
        all_roots = [r for c in comps for r in c.roots]
        assert sorted(all_roots) == sorted(_level_roots(d, 1))


def test_empty_j_alpha_means_one_dimensional():
    comps = {c.alpha: c for c in components(parse_diagram("F4[1,2]"))}
    assert comps[1].j_alpha == ()
    assert len(comps[1].roots) == 1
    assert comps[1].highest_weight == {}
    assert comps[2].j_alpha == (3,)
    assert comps[2].highest_weight == {3: -2}


def test_a_type_block_dimension_formula():
    # Two circles in a chain: dim d_1 = (p1+1)(p2+1) + (p2+1)(p3+1).
    for n, (c1, c2) in [(5, (2, 4)), (6, (1, 4)), (7, (3, 6))]:
        d = parse_diagram(f"A{n}[{c1},{c2}]")
        p1, p2, p3 = c1 - 1, c2 - c1 - 1, n - c2
        g = compute_grading(d)
        assert g.dim_by_level[1] == (p1 + 1) * (p2 + 1) + (p2 + 1) * (p3 + 1)


# ---------------------------------------------------------------------------
# the Cartan integer of a circled node against a theta neighbor, by lengths


@pytest.mark.parametrize("text,alpha,beta,value", [
    ("A4[2]", 2, 1, -1),
    ("A4[2]", 2, 3, -1),
    ("F4[1,2]", 2, 3, -2),
    ("F4[3]", 3, 2, -1),   # short circled next to long: stays -1
    ("G2[1]", 1, 2, -3),   # node 1 long in our convention
    ("G2[2]", 2, 1, -1),
])
def test_rules_fixtures(text, alpha, beta, value):
    rs = build_root_system(parse_diagram(text).type)
    assert length_rule(rs, alpha, beta) == value == rs.cartan[alpha - 1][beta - 1]


def test_rules_equal_cartan_integers_small():
    for t in (SimpleType("B", 4), SimpleType("C", 4), SimpleType("G", 2)):
        # Every adjacent pair (a, b) is a circled node and a theta neighbor
        # in some diagram, e.g. the one that circles a alone.
        rs = build_root_system(t)
        for a in range(1, t.rank + 1):
            for b in rs.neighbors(a):
                assert length_rule(rs, a, b) == rs.cartan[a - 1][b - 1]


def test_grading_dim_matches_chevalley():
    for text in ("A3[1,3]", "F4[1,2]"):
        d = parse_diagram(text)
        cb = chevalley_basis(d.type)
        g = compute_grading(d)
        assert sum(g.dim_by_level.values()) == cb.dim
