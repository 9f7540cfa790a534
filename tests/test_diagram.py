"""Weighted diagrams: the DSL parser, rendering, and subdiagram extraction."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab.diagram import (DiagramError, DuplicateIndex, EmptyCircledSet, IndexOutOfRange,
                           NotCircled, ParseError, WeightedDiagram, circled_adjacent_pairs,
                           parse_diagram, render_ascii, render_compact, subdiagram)
from pvlab.rootsys import InadmissibleType, SimpleType

# ---------------------------------------------------------------------------
# parsing


def test_parse_basic():
    d = parse_diagram("A3[1,3]")
    assert d.type == SimpleType("A", 3)
    assert d.circled == (1, 3)
    assert d.theta == (2,)


def test_parse_tolerates_whitespace_and_order():
    d = parse_diagram("  D9 [ 8,2 , 5, 3 ]  ")
    assert d.type == SimpleType("D", 9)
    assert d.circled == (2, 3, 5, 8)


@pytest.mark.parametrize("text,exc", [
    ("A3[0,2]", IndexOutOfRange),
    ("A3[4]", IndexOutOfRange),
    ("A3[1,1]", DuplicateIndex),
    ("A3[]", EmptyCircledSet),
    ("Q3[1]", InadmissibleType),
    ("D3[1]", InadmissibleType),
])
def test_parse_semantic_errors(text, exc):
    with pytest.raises(exc):
        parse_diagram(text)


@pytest.mark.parametrize("text,column", [
    ("A3[", 4),        # truncated right where the first index should start
    ("A3", 3),
    ("A3[1,3]x", 8),
    ("A3[a]", 4),
    ("3[1]", 1),
])
def test_parse_error_columns(text, column):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert err.value.column == column
    assert f"column {column}" in str(err.value)


@pytest.mark.parametrize("text,column,message", [
    ("A\u00b2[1]", 2, "expected a rank number, got '\u00b2'"),
    ("A3[1,\u00b2]", 6, "expected a node index, got '\u00b2'"),
])
def test_parse_rejects_digits_that_int_rejects(text, column, message):
    # A superscript two is a digit to str.isdigit but not a decimal that
    # int() parses; the parser reports it like any other bad character.
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert err.value.column == column
    assert str(err.value) == f"{message} (column {column})"


def test_parse_accepts_any_decimal_digit():
    assert parse_diagram("A3[1,\uff13]") == parse_diagram("A3[1,3]")  # fullwidth three


def test_parse_error_is_diagram_error():
    assert issubclass(ParseError, DiagramError)


def test_constructor_validates():
    with pytest.raises(DiagramError):
        WeightedDiagram(SimpleType("A", 3), ())
    with pytest.raises(DiagramError):
        WeightedDiagram(SimpleType("A", 3), (5,))


# ---------------------------------------------------------------------------
# rendering


ALL_SMALL_TYPES = ([SimpleType("A", n) for n in range(1, 7)]
                   + [SimpleType("B", n) for n in range(2, 7)]
                   + [SimpleType("C", n) for n in range(3, 7)]
                   + [SimpleType("D", n) for n in range(4, 7)]
                   + [SimpleType("E", 6), SimpleType("F", 4), SimpleType("G", 2)])


def test_compact_round_trip_exhaustive():
    for t in ALL_SMALL_TYPES:
        for size in range(1, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                d = WeightedDiagram(t, circled)
                assert parse_diagram(render_compact(d)) == d


@given(st.sampled_from(ALL_SMALL_TYPES), st.data())
@settings(max_examples=80, deadline=None)
def test_compact_round_trip_random(t, data):
    nodes = data.draw(st.sets(st.integers(1, t.rank), min_size=1))
    d = WeightedDiagram(t, tuple(sorted(nodes)))
    assert parse_diagram(render_compact(d)) == d


@pytest.mark.parametrize("text,picture", [
    ("A2[1]", "(o)--o"),
    ("B3[3]", "o--o=>(o)"),
    ("C3[1]", "(o)--o<=o"),
    ("G2[1]", "(o)≡>o"),
    ("G2[2]", "o≡>(o)"),
    ("F4[1,2]", "(o)--(o)=>o--o"),
    ("D5[2,5]", "o--(o)--o--o\n        |\n       (o)"),
    ("E6[1,2]", "(o)--o--o--o--o\n        |\n       (o)"),
])
def test_render_ascii_fixtures(text, picture):
    assert render_ascii(parse_diagram(text)) == picture


# ---------------------------------------------------------------------------
# adjacency and subdiagrams


@pytest.mark.parametrize("text,pairs", [
    ("A4[2,3]", [(2, 3)]),
    ("A4[1,3]", []),
    ("D9[2,3,5,8]", [(2, 3)]),
    ("D5[4,5]", []),       # the two fork tips are not adjacent
    ("D5[3,4,5]", [(3, 4), (3, 5)]),
])
def test_circled_adjacent_pairs(text, pairs):
    assert circled_adjacent_pairs(parse_diagram(text)) == pairs


def test_subdiagram_single_gamma():
    s = subdiagram(parse_diagram("D9[2,3,5,8]"), (2,))
    assert s.psi_gamma == (1, 2)
    assert s.theta_gamma == (1,)
    assert len(s.pieces) == 1
    nodes, piece = s.pieces[0]
    assert nodes == (1, 2)
    assert render_compact(piece) == "A2[2]"


def test_subdiagram_two_pieces():
    s = subdiagram(parse_diagram("D9[2,3,5,8]"), (2, 8))
    assert [(nodes, render_compact(p)) for nodes, p in s.pieces] == [
        ((1, 2), "A2[2]"),
        ((6, 7, 8, 9), "D4[3]"),
    ]


def test_subdiagram_connected_pair():
    s = subdiagram(parse_diagram("D9[2,3,5,8]"), (5, 8))
    assert s.psi_gamma == (4, 5, 6, 7, 8, 9)
    assert [(nodes, render_compact(p)) for nodes, p in s.pieces] == [
        ((4, 5, 6, 7, 8, 9), "D6[2,5]"),
    ]


def test_subdiagram_rejects_uncircled():
    with pytest.raises(NotCircled):
        subdiagram(parse_diagram("D9[2,3,5,8]"), (4,))


def test_subdiagram_full_covers_circles():
    for text in ("D9[2,3,5,8]", "E6[1,2]", "B5[1,4]"):
        d = parse_diagram(text)
        s = subdiagram(d, d.circled)
        circled_in_pieces = []
        for nodes, piece in s.pieces:
            for local in piece.circled:
                circled_in_pieces.append(nodes[local - 1])
        assert sorted(circled_in_pieces) == list(d.circled)
        assert set(s.theta_gamma) <= set(d.theta)


def test_subdiagram_singleton_is_connected():
    d = parse_diagram("E6[1,2]")
    for alpha in d.circled:
        s = subdiagram(d, (alpha,))
        assert len(s.pieces) == 1
