"""Root systems: admissibility, Cartan matrices, root enumeration, pieces."""
from __future__ import annotations

import hashlib
import itertools

import pytest
import sympy.liealgebras.cartan_matrix as sym_cm

from pvlab.chevalley import chevalley_basis
from pvlab.rootsys import (_RANK_RANGE, InadmissibleType, SimpleType, build_root_system,
                           cartan_matrix, check_admissible, split_pieces)

@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("C", 5), ("D", 6),
                                         ("E", 6), ("E", 7), ("E", 8), ("F", 4)])
def test_cartan_matrix_matches_sympy(family, rank):
    ours = cartan_matrix(SimpleType(family, rank))
    theirs = sym_cm.CartanMatrix(f"{family}{rank}").tolist()
    assert ours == theirs


def test_g2_orientation():
    # Node 1 long, node 2 short; sympy uses the opposite convention, so this
    # is pinned directly rather than cross-checked.
    assert cartan_matrix(SimpleType("G", 2)) == [[2, -3], [-1, 2]]


@pytest.mark.parametrize("family,rank,minrank", [("A", 0, 1), ("B", 1, 2), ("C", 2, 3),
                                                 ("D", 3, 4), ("E", 5, 6), ("E", 9, 6),
                                                 ("F", 3, 4), ("G", 1, 2)])
def test_inadmissible_ranks(family, rank, minrank):
    with pytest.raises(InadmissibleType):
        check_admissible(SimpleType(family, rank))
    assert check_admissible(SimpleType(family, minrank)) == SimpleType(family, minrank)


def test_unknown_family():
    with pytest.raises(InadmissibleType):
        check_admissible(SimpleType("Q", 3))


def test_root_closure_b3():
    rs = build_root_system(SimpleType("B", 3))
    roots = set(rs.roots)
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            assert rs.is_root(s) == (s in roots)


# Every admissible A-D type up to rank 24, and the exceptional types.
TYPES_THROUGH_RANK_24 = ([(f, n) for f in "ABCD" for n in range(_RANK_RANGE[f][0], 25)]
                         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_norms_by_family():
    # alpha_n is the short root in B_n and the long root in C_n; G2 takes
    # alpha_1 long.
    closed = {"B": lambda n: [2] * (n - 1) + [1], "C": lambda n: [1] * (n - 1) + [2],
              "F": lambda n: [2, 2, 1, 1], "G": lambda n: [3, 1]}
    for family, rank in TYPES_THROUGH_RANK_24:
        want = closed.get(family, lambda n: [1] * n)(rank)
        assert build_root_system(SimpleType(family, rank)).lengths == want, (family, rank)


# Positive-root counts in closed form.
POSITIVE_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                   "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                   "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}


@pytest.mark.parametrize("family,rank", TYPES_THROUGH_RANK_24)
def test_root_counts(family, rank):
    t = SimpleType(family, rank)
    rs = build_root_system(t)
    assert len(rs.positive) == (POSITIVE_COUNTS.get(str(t)) or POSITIVE_COUNTS[family](rank))
    assert len(rs.roots) == 2 * len(rs.positive)


def _string_length(rs, r, i, sign):
    """How many steps r + sign k alpha_i, k = 1, 2, ..., stay roots."""
    k = 0
    while rs.is_root(tuple(c + sign * (k + 1) * (j == i) for j, c in enumerate(r))):
        k += 1
    return k


def test_positive_roots_through_rank_24():
    # Every type of test_root_counts: the (height, coordinates) order, and,
    # up to rank 12, p - q = r(H_i) for every positive root r != alpha_i,
    # with p and q the lengths of its alpha_i-string below and above r.
    for t in itertools.starmap(SimpleType, TYPES_THROUGH_RANK_24):
        rs = build_root_system(t)
        assert rs.positive == sorted(rs.positive, key=lambda r: (sum(r), r)), t
        if t.rank > 12:
            continue
        for r in rs.positive:
            for i, col in enumerate(zip(*rs.cartan)):
                if sum(r) == r[i] == 1:
                    continue  # r = alpha_i
                pairing = sum(a * c for a, c in zip(r, col))
                p, q = _string_length(rs, r, i, -1), _string_length(rs, r, i, 1)
                assert p - q == pairing, (t, r, i)


def test_pairing_is_cartan_integer():
    t = SimpleType("F", 4)
    rs = build_root_system(t)
    pairings = chevalley_basis(t).pairings
    cm = cartan_matrix(t)
    for i in range(1, 5):
        alpha = tuple(1 if j == i else 0 for j in range(1, 5))
        assert list(pairings[rs.index(alpha)]) == cm[i - 1]


def test_adjacency_d9():
    rs = build_root_system(SimpleType("D", 9))
    assert rs.adjacent(7, 8) and rs.adjacent(7, 9)
    assert not rs.adjacent(8, 9)
    assert sorted(rs.neighbors(7)) == [6, 8, 9]


def test_connected_components_relabel():
    rs = build_root_system(SimpleType("D", 9))
    pieces = split_pieces(rs, (1, 2, 6, 7, 8, 9))
    assert [(p.nodes, p.type) for p in pieces] == [
        ((1, 2), SimpleType("A", 2)),
        ((6, 7, 8, 9), SimpleType("D", 4)),
    ]


def test_split_pieces_and_induced():
    rs = build_root_system(SimpleType("D", 9))
    pieces = split_pieces(rs, (4, 5, 6, 7, 8, 9))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.nodes == (4, 5, 6, 7, 8, 9)
    assert piece.type == SimpleType("D", 6)
    # Pieces are cached by sorted node tuple; a set of nodes finds the same one.
    [same] = split_pieces(rs, {9, 8, 7, 6, 5, 4})
    assert same is piece


def test_neighbors_match_adjacency():
    # neighbors(i) is computed once per root system; it must list the
    # adjacent nodes in ascending order.
    types = ([SimpleType(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
              for n in range(lo, 9)]
             + [SimpleType("E", n) for n in (6, 7, 8)] + [SimpleType("F", 4), SimpleType("G", 2)])
    for t in types:
        rs = build_root_system(t)
        for i in range(1, t.rank + 1):
            assert list(rs.neighbors(i)) == [j for j in range(1, t.rank + 1) if rs.adjacent(i, j)]


# Every connected node set of these ambients, with its piece.  The relabel
# fixes the piece marks, the piece-verdict keys and `pvlab subdiagram`.
PIECE_AMBIENTS = ([SimpleType("A", n) for n in range(1, 12)]
                  + [SimpleType("B", n) for n in range(2, 12)]
                  + [SimpleType("C", n) for n in range(3, 12)]
                  + [SimpleType("D", n) for n in range(4, 12)]
                  + [SimpleType("E", n) for n in (6, 7, 8)]
                  + [SimpleType("F", 4), SimpleType("G", 2)])


def _connected_pieces():
    for t in PIECE_AMBIENTS:
        rs = build_root_system(t)
        for k in range(1, t.rank + 1):
            for nodes in itertools.combinations(range(1, t.rank + 1), k):
                pieces = split_pieces(rs, nodes)
                if len(pieces) == 1:
                    yield rs, pieces[0]


def test_every_piece_relabel_is_frozen():
    # sha256 over (ambient, nodes, type, sorted relabel) of the 1,281
    # connected node sets, in the order above.
    rows = [(str(rs.type), p.nodes, str(p.type), tuple(sorted(p.relabel.items())))
            for rs, p in _connected_pieces()]
    assert len(rows) == 1281
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "93815834c02516a2b35116afc18b7f5efa12a71d276b1f7c535e96fd432568fa")


def test_every_piece_relabel_carries_its_cartan_matrix():
    for rs, p in _connected_pieces():
        k = len(p.nodes)
        assert sorted(p.relabel) == list(p.nodes)
        assert sorted(p.relabel.values()) == list(range(1, k + 1))
        standard = cartan_matrix(p.type)
        for a in p.nodes:
            for b in p.nodes:
                assert rs.cartan[a - 1][b - 1] == standard[p.relabel[a] - 1][p.relabel[b] - 1]
