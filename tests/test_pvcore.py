"""The exact oracle: generic points, isotropy, regularity, invariant counts."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab import grading, pvcore
from pvlab.classify import classify
from pvlab._linalg import det, matvec, rank
from pvlab._rand import Stream
from pvlab.diagram import WeightedDiagram, parse_diagram
from pvlab.models import (MODELS, build_model, diag_chain, dual_pair, matrix_pair, sym_vector,
                          verify_model)
from pvlab.pvcore import (DegenerateInvariant, EmptySubset, Invariant, NonGenericPoint,
                          NotRegular, NotRelativeInvariant, PVError, SubsetLattice,
                          build_parabolic_pv, decompose_filtration, is_reductive, is_regular,
                          q_irreducible, restrict, verify_invariant)
from pvlab.rootsys import SimpleType

from _instances import (FROZEN_ENUMERATED, FROZEN_LARGE, SWEEP, IdentityViolation,
                        dense_operator, dense_repr, dense_rows, hessian_product_identity_check,
                        invariant_samples, isotropy_algebra, searched_draw)


def test_parabolic_instance_shapes():
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    assert pv.dim_v == 4
    assert pv.dim_g == 5            # Cartan (3) + the theta pair
    assert len(pv.components) == 2
    assert [len(c) for c in pv.components] == [2, 2]
    assert len(pv.characters) == 2  # one character per circled node


def test_parabolic_instances_are_frozen():
    # tests/data/parabolic_instances.json maps each simple type to the
    # sha256 of repr(astuple(instance)) over its diagrams in enumeration
    # order (size, then circled nodes), each operator rebuilt dense:
    # operators, generator order, form, characters and components must not
    # drift.
    diagrams: dict[str, set] = {}
    for family, rank in FROZEN_ENUMERATED:
        t = SimpleType(family, rank)
        for size in range(2, rank + 1):
            for circled in itertools.combinations(range(1, rank + 1), size):
                diagrams.setdefault(str(t), set()).add(WeightedDiagram(t, circled))
    for text in FROZEN_LARGE:
        d = parse_diagram(text)
        diagrams.setdefault(str(d.type), set()).add(d)
    assert sum(map(len, diagrams.values())) == 927 + 1367 + 7
    got = {}
    for t, ds in diagrams.items():
        digest = hashlib.sha256()
        for d in sorted(ds, key=lambda d: (len(d.circled), d.circled)):
            pv = build_parabolic_pv(d)
            # pvcore._gram computes S F S^t on and above the diagonal only.
            form = dense_rows(pv, pv.form)
            assert form == tuple(zip(*form)), f"asymmetric form on {d}"
            digest.update(dense_repr(pv).encode())
        got[t] = digest.hexdigest()
    frozen = json.loads((Path(__file__).parent / "data" / "parabolic_instances.json").read_text())
    assert got == frozen


def _first_stage_isotropy(text: str) -> pvcore.PVInstance:
    # The subalgebra instance that decompose_filtration hands from the first
    # stage to the second.  For C3[1,3] three of its entry sums cancel.
    pv = build_parabolic_pv(parse_diagram(text))
    stage = decompose_filtration(pv).stages[0]
    subset = tuple(pv.labels.index(label) for label in stage.labels)
    return pvcore.subalgebra_instance(pv, is_regular(restrict(pv, subset)).isotropy_basis)


@pytest.mark.parametrize("pv", [build_parabolic_pv(parse_diagram("E6[1,2]")),
                                build_parabolic_pv(parse_diagram("C6[2,5]")),
                                build_model("skew-pair:p=2,r=5").instance,
                                sym_vector(3).instance,
                                _first_stage_isotropy("C3[1,3]")],
                         ids=["E6[1,2]", "C6[2,5]", "skew-pair", "sym-vector",
                              "C3[1,3]-isotropy"])
def test_action_columns_are_the_dense_products(pv):
    # Column i is operator i times x, summed over the operator's entries,
    # none of which is zero.
    assert all(v for entries in pv.operators for _, _, v in entries)
    x = list(range(-3, pv.dim_v - 3))
    dense = [dense_operator(pv, op) for op in pv.operators]
    expected = [list(col) for col in zip(*(matvec(op, x) for op in dense))]
    assert pvcore._action_columns(pv, x) == expected


def test_generic_point_determinism():
    pv = build_parabolic_pv(parse_diagram("A4[1,2]"))
    a = is_regular(pv, 3)
    b = is_regular(pv, 3)
    assert a == b
    c = is_regular(pv, 4)
    assert c.orbit_rank == a.orbit_rank  # verdict is seed-stable


def test_isotropy_vectors_annihilate_the_point():
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    rep = is_regular(pv)
    x = rep.generic_point
    iso = isotropy_algebra(pv, x)
    assert len(iso) == pv.dim_g - rep.orbit_rank
    for s in iso:
        image = [0] * pv.dim_v
        for b, sb in enumerate(s):
            if sb:
                col = matvec(dense_operator(pv, pv.operators[b]), x)
                image = [u + sb * v for u, v in zip(image, col)]
        assert image == [0] * pv.dim_v


def test_square_block_is_regular():
    rep = is_regular(build_parabolic_pv(parse_diagram("A3[2]")))
    assert rep.prehomogeneous and rep.reductive and rep.regular
    assert rep.n_fundamental_invariants == 1
    assert rep.form_determinant != 0


def test_tall_block_is_prehomogeneous_but_not_regular():
    rep = is_regular(build_parabolic_pv(parse_diagram("A3[1]")))
    assert rep.prehomogeneous
    assert not rep.reductive
    assert not rep.regular
    assert rep.form_determinant == 0


def test_pairing_diagram_certificates():
    rep = is_regular(build_parabolic_pv(parse_diagram("A3[1,3]")))
    assert rep.regular
    assert rep.orbit_rank == 4
    assert rep.isotropy_dim == 1
    assert rep.n_fundamental_invariants == 1


def test_orbit_rank_plus_isotropy_is_dim_g():
    for text in ("A3[1,3]", "B3[1,3]", "C6[2,5]", "D5[2,4]"):
        pv = build_parabolic_pv(parse_diagram(text))
        rep = is_regular(pv)
        assert rep.orbit_rank + rep.isotropy_dim == pv.dim_g
        assert rep.prehomogeneous == (rep.orbit_rank == pv.dim_v)


def test_restrict_components():
    pv = build_parabolic_pv(parse_diagram("E6[1,2]"))
    r0 = restrict(pv, (0,))
    r1 = restrict(pv, (1,))
    assert r0.dim_v + r1.dim_v == pv.dim_v
    assert restrict(pv, (0, 1)) is pv
    with pytest.raises(EmptySubset):
        restrict(pv, ())
    with pytest.raises(EmptySubset):
        restrict(pv, (7,))


def test_projection_of_generic_point_is_generic():
    # The projection onto a single component achieves that restriction's
    # maximal orbit rank.
    pv = build_parabolic_pv(parse_diagram("A4[1,3]"))
    x = is_regular(pv).generic_point
    offset = 0
    for i, comp in enumerate(pv.components):
        sub = restrict(pv, (i,))
        proj = list(x[offset:offset + len(comp)])
        offset += len(comp)
        iso = isotropy_algebra(sub, proj)
        assert sub.dim_g - len(iso) == is_regular(sub).orbit_rank


def test_regular_pieces_sum_rule():
    # Both components regular separately implies the sum is regular and the
    # invariant counts add up.
    pv = build_parabolic_pv(parse_diagram("F4[1,2]"))
    rep0 = is_regular(restrict(pv, (0,)))
    rep1 = is_regular(restrict(pv, (1,)))
    full = is_regular(pv)
    assert rep0.regular and rep1.regular and full.regular
    assert (rep0.n_fundamental_invariants + rep1.n_fundamental_invariants
            == full.n_fundamental_invariants)


def test_q_irreducibility_verdicts():
    assert q_irreducible(build_parabolic_pv(parse_diagram("C6[2,5]"))).q_irreducible
    rep = q_irreducible(build_parabolic_pv(parse_diagram("F4[1,2]")))
    assert not rep.q_irreducible
    assert rep.witness is not None
    for text, reducible in (("F4[1,2]", True), ("D9[2,3,5,8]", False)):
        lattice = SubsetLattice(build_parabolic_pv(parse_diagram(text)))
        assert lattice.completely_q_reducible(lattice.full) == reducible


def test_one_irreducible_implies_q_irreducible():
    # Verdict-level hierarchy: a single fundamental invariant plus
    # regularity forces Q-irreducibility.
    for text in ("A3[1,3]", "B3[1,3]", "C6[2,5]"):
        pv = build_parabolic_pv(parse_diagram(text))
        rep = is_regular(pv)
        if rep.regular and rep.n_fundamental_invariants == 1:
            assert q_irreducible(pv).q_irreducible


def test_short_orbit_of_a_parabolic_instance_raises(monkeypatch):
    # Every parabolic instance is prehomogeneous (Vinberg), so candidates
    # that never reach the full orbit rank give no full report.  A
    # restriction has no diagram and still reports "not prehomogeneous".
    monkeypatch.setattr(Stream, "vector", lambda self, length: [0] * length)
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    with pytest.raises(NonGenericPoint):
        is_regular(pv)
    assert not is_regular(restrict(pv, (0,))).prehomogeneous


def test_a_seed_whose_first_eight_draws_miss_the_open_orbit():
    # At seed 9,002,031 the first eight draws on B6[1,2,3,4,5] all have
    # orbit rank 6; the tenth reaches the open orbit.
    rep = is_regular(build_parabolic_pv(parse_diagram("B6[1,2,3,4,5]")), 9_002_031)
    assert rep.orbit_rank == 7 and rep.regular
    assert rep.n_fundamental_invariants == 5
    assert rep.generic_point == (-4, -9, 2, 7, 3, -8, 1)


def test_generic_point_is_the_searched_draw():
    # is_regular certifies each draw by its own exact elimination; the point
    # must be the one a search by mod-p ranks alone returns.
    assert len(SWEEP) == 927
    for d in SWEEP + [parse_diagram(text) for text in FROZEN_LARGE]:
        pv = build_parabolic_pv(d)
        for seed in (0, 1):
            assert is_regular(pv, seed).generic_point == searched_draw(pv, seed), d


@pytest.mark.parametrize("text", ["A3[1,3]", "E6[1,2]", "D7[2,6,7]"])
def test_uncertified_first_draw_falls_back_to_the_search(monkeypatch, text):
    # A zero first draw has rank 0, so is_regular goes on to the next draw,
    # the stream's first real vector, and gives the unpatched report.
    pv = build_parabolic_pv(parse_diagram(text))
    expected = is_regular(pv, 0)
    vector, calls = Stream.vector, []

    def zero_first(self, length):
        calls.append(length)
        return [0] * length if len(calls) == 1 else vector(self, length)

    monkeypatch.setattr(Stream, "vector", zero_first)
    report = is_regular(pv, 0)
    assert len(calls) >= 2
    assert report == expected


def test_a_short_orbit_exhausts_every_draw(monkeypatch):
    # so(3) on C^3 has orbit rank 2 < dim_v = 3 at every point, so the loop
    # runs through all CANDIDATES draws and keeps the first, with no patched
    # stream.  Its isotropy at x is the rotations about x, an so(2), on which
    # the trace form -2 tr is nondegenerate.
    operators = [[(a, b, 1), (b, a, -1)] for a, b in ((0, 1), (0, 2), (1, 2))]  # E_ab - E_ba
    pv = pvcore.make_instance("so3", operators, 3, [[(i, -2)] for i in range(3)], [],
                              [(0, 1, 2)], ["C^3"])
    drawn = []
    candidates = pvcore._candidates

    def recording(pv, seed):
        for x in candidates(pv, seed):
            drawn.append(x)
            yield x

    monkeypatch.setattr(pvcore, "_candidates", recording)
    rep = is_regular(pv, 0)
    assert (rep.prehomogeneous, rep.orbit_rank, rep.isotropy_dim, rep.reductive) == (
        False, 2, 1, True)
    assert rep.generic_point == (7, -7, 6) == tuple(drawn[0])
    assert len(drawn) == pvcore.CANDIDATES == 32


def test_a_short_orbit_takes_the_gram_determinant():
    # so(6) on C^6 has orbit rank 5 < dim_v = 6, and its isotropy so(5) has
    # dimension 10, so the cost rule alone would take det N, which is 0 below
    # full rank.  The report takes the Gram determinant instead: so(5) is
    # reductive, and no N is kept.
    pairs = list(itertools.combinations(range(6), 2))
    operators = [[(a, b, 1), (b, a, -1)] for a, b in pairs]  # E_ab - E_ba
    pv = pvcore.make_instance("so6", operators, 6, [[(i, -2)] for i in range(len(pairs))], [],
                              [tuple(range(6))], ["C^6"])
    rep = is_regular(pv, 0)
    assert (rep.prehomogeneous, rep.orbit_rank, rep.isotropy_dim, rep.reductive) == (
        False, 5, 10, True)
    assert rep.reductivity_matrix is None


def test_a_singular_minor_of_a_short_orbit_reads_the_sum_report(monkeypatch):
    # The scalars on C^2 + C: the full report is not prehomogeneous, so a
    # singular principal minor of N certifies nothing there and the sum's
    # own report decides, while an invertible one certifies "regular" with
    # no report.  C^2 alone is not prehomogeneous: its minor is singular and
    # its restricted report reads "not regular".  C alone is regular by its
    # minor, with no restriction built.
    pv = pvcore.make_instance("scalars", [[(0, 0, 1), (1, 1, 1), (2, 2, 1)]], 3, [[(0, 1)]],
                              [[(0, 1)]], [(0, 1), (2,)], ["C^2", "C"])
    restricted = []
    restriction = pvcore.restrict

    def recording(pv, indices):
        restricted.append(tuple(indices))
        return restriction(pv, indices)

    monkeypatch.setattr(pvcore, "restrict", recording)
    lattice = SubsetLattice(pv)
    assert not lattice.regular(lattice.full).prehomogeneous
    assert (lattice.is_regular_sum((0,)), lattice.is_regular_sum((1,))) == (False, True)
    assert restricted == [(0, 1), (0,)]


def test_closed_form_form_determinant_over_the_sweep():
    # det F is the product of the determinants of F's connected blocks, and
    # c F^-1 their inverses scaled by one integer c: on every sweep diagram
    # and one instance of each model, det F must be the dense determinant
    # and c F^-1 times F must be c times the identity.
    instances = [build_parabolic_pv(d) for d in SWEEP]
    instances += [build_model(s).instance for s in SMALL_MODELS]
    for pv in instances:
        form = dense_rows(pv, pv.form)
        g, c, det_f = pvcore._form_inverse(pv)
        assert det_f == det(form), pv.name
        for i, row in enumerate(g):
            assert [sum(v * form[j][k] for j, v in row) for k in range(pv.dim_g)] == [
                c * (i == k) for k in range(pv.dim_g)], pv.name


# One small instance of each of the eight models.
SMALL_MODELS = ("dual-pair:n=2", "sym-vector:n=3", "descending-chains:n=3",
                "matrix-pair:p=2,q=3,r=2", "skew-pair:p=2,r=5", "diag-chain:p=2,q=3",
                "vector-skew:n=5", "det-augmented:n=3")


def test_characters_are_independent(monkeypatch):
    # is_regular's invariant count reads the number of characters as their
    # rank.  The parabolic instances have unit rows, the models indicator
    # rows on disjoint generators, and a restriction its parent's rows.  The
    # stage-2 instances of these filtrations restrict dependent rows (2 of
    # rank 1, or 3 of rank 2) and keep a basis of them.
    made = []
    subalgebra = pvcore.subalgebra_instance

    def recording(pv, vectors):
        made.append(subalgebra(pv, vectors))
        return made[-1]

    monkeypatch.setattr(pvcore, "subalgebra_instance", recording)
    instances = [build_parabolic_pv(d) for d in SWEEP]
    assert set(MODELS) == {s.partition(":")[0] for s in SMALL_MODELS}
    for s in SMALL_MODELS:
        pv = build_model(s).instance
        instances += [restrict(pv, subset) for k in range(1, len(pv.components) + 1)
                      for subset in itertools.combinations(range(len(pv.components)), k)]
    for pv in [build_model(s).instance for s in
               ("sym-vector:n=3", "descending-chains:n=2", "descending-chains:n=3")] + [
               build_parabolic_pv(parse_diagram("C3[1,3]"))]:
        decompose_filtration(pv)
    assert [(pv.name, len(pv.characters)) for pv in made] == [
        ("sym-vector(n=3).isotropy", 1), ("descending-chains(n=2).isotropy", 1),
        ("descending-chains(n=3).isotropy", 2),
        ("descending-chains(n=3).isotropy/V[2]+V[1].isotropy", 1), ("C3[1,3].isotropy", 1)]
    for pv in instances + made:
        assert rank(dense_rows(pv, pv.characters)) == len(pv.characters), pv.name


def test_reductivity_matrix_needs_a_nondegenerate_form():
    # N_x = A_x F^-1 A_x^t needs F^-1.  skew-pair:p=2,r=5 is prehomogeneous
    # but not regular, so the form on its generic isotropy is degenerate, and
    # that is the form of the subalgebra instance built on the isotropy.
    # Building N there, and every lattice query that reads N, must raise; no
    # verdict may come back or be cached.
    pv = build_model("skew-pair:p=2,r=5").instance
    report = is_regular(pv)
    assert report.prehomogeneous and not report.reductive
    sub = pvcore.subalgebra_instance(pv, report.isotropy_basis)
    with pytest.raises(PVError, match="degenerate"):
        pvcore._reductivity_matrix(sub, pvcore._action_columns(sub, report.generic_point))
    lattice = SubsetLattice(sub)
    for subset in ((0,), (1,)):
        with pytest.raises(PVError, match="degenerate"):
            lattice.is_regular_sum(subset)
        with pytest.raises(PVError, match="degenerate"):
            lattice.regular_proper_subset(lattice.full)
    assert not lattice._verdict


def test_is_reductive_on_spans():
    pv = build_parabolic_pv(parse_diagram("A3[2]"))
    # The whole algebra is reductive; the empty subalgebra trivially so.
    full = [[1 if i == j else 0 for j in range(pv.dim_g)] for i in range(pv.dim_g)]
    assert is_reductive(pv, full).reductive
    cert = is_reductive(pv, [])
    assert cert.reductive and cert.determinant == 1


def test_each_regularity_verdict_is_computed_once(monkeypatch):
    calls = Counter()
    original = pvcore.is_regular

    def counting(pv, seed=0):
        calls[pv] += 1
        return original(pv, seed)

    monkeypatch.setattr(pvcore, "is_regular", counting)
    ok, _ = verify_model(build_model("matrix-pair:p=2,q=3,r=2"))
    assert ok and calls and max(calls.values()) == 1
    calls.clear()
    decompose_filtration(sym_vector(3).instance)
    assert calls and max(calls.values()) == 1
    calls.clear()
    lattice = SubsetLattice(build_parabolic_pv(parse_diagram("A3[1,3]")))
    first = lattice.q_irreducibility()
    computed = sum(calls.values())
    assert lattice.q_irreducibility() == first
    assert sum(calls.values()) == computed > 0


def test_each_draw_builds_one_action_matrix(monkeypatch):
    # is_regular hands its chosen draw's A_x to the N build, so a report that
    # takes its form determinant from det N builds A_x once per draw.
    draws, built = [], []
    candidates, action = pvcore._candidates, pvcore._action_columns

    def drawing(pv, seed):
        for x in candidates(pv, seed):
            draws.append(tuple(x))
            yield x

    def acting(pv, x):
        built.append(tuple(x))
        return action(pv, x)

    monkeypatch.setattr(pvcore, "_candidates", drawing)
    monkeypatch.setattr(pvcore, "_action_columns", acting)
    report = is_regular(build_parabolic_pv(parse_diagram("E8[1,2]")))
    assert report.reductivity_matrix is not None
    assert built == draws and draws


def test_shared_piece_verdict_is_computed_once(monkeypatch):
    # A3[1,3] and A4[1,3] restricted to V[1] both have the one piece A2[1].
    # Piece verdicts come from principal_minor_regular, so its calls are counted,
    # each named by the restriction it decides.  A full report fills its
    # diagram's entry too: from a cold table A5[1,3,5] decides V[1], V[3]
    # and V[1]+V[3], but after A4[1,3] is classified only V[3], since V[1]
    # is the piece A2[1] and V[1]+V[3] the piece A4[1,3].
    names = []
    original = pvcore.principal_minor_regular

    def counting(pv, subset, n):
        names.append(restrict(pv, subset).name)
        return original(pv, subset, n)

    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    monkeypatch.setattr(pvcore, "principal_minor_regular", counting)
    first = SubsetLattice(build_parabolic_pv(parse_diagram("A3[1,3]")))
    assert first.regular_proper_subset(first.full) is None
    assert names == ["A3[1,3]/V[1]", "A3[1,3]/V[3]"]
    names.clear()
    second = SubsetLattice(build_parabolic_pv(parse_diagram("A4[1,3]")))
    assert second.regular_proper_subset(second.full) == (1,)  # the piece A3[2]
    assert names == ["A4[1,3]/V[3]"]
    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    names.clear()
    classify(parse_diagram("A5[1,3,5]"), "both", 0)
    assert names == ["A5[1,3,5]/V[1]", "A5[1,3,5]/V[3]", "A5[1,3,5]/V[1]+V[3]"]
    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    classify(parse_diagram("A4[1,3]"), "both", 0)
    assert pvcore._PIECE_VERDICTS[parse_diagram("A4[1,3]")] is False
    names.clear()
    classify(parse_diagram("A5[1,3,5]"), "both", 0)
    assert names == ["A5[1,3,5]/V[3]"]


def test_piece_verdicts_are_shared_across_seeds(monkeypatch):
    # The table is keyed by the diagram alone: a verdict is exact, so one
    # decided at seed 0 answers at seed 1.  After A4[1,3] at seed 0, A5[1,3,5]
    # at seed 1 decides only V[3]; V[1] is the piece A2[1] and V[1]+V[3] the
    # piece A4[1,3], both already in the table.
    names = []
    original = pvcore.principal_minor_regular

    def counting(pv, subset, n):
        names.append(restrict(pv, subset).name)
        return original(pv, subset, n)

    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    monkeypatch.setattr(pvcore, "principal_minor_regular", counting)
    classify(parse_diagram("A4[1,3]"), "both", 0)
    names.clear()
    classify(parse_diagram("A5[1,3,5]"), "both", 1)
    assert names == ["A5[1,3,5]/V[3]"]
    assert all(type(key) is WeightedDiagram for key in pvcore._PIECE_VERDICTS)


def test_piece_verdicts_search_no_restriction(monkeypatch):
    # A piece verdict reads a principal minor of its diagram's N at the
    # certified point, so a seed-0 sweep pass from an empty piece-verdict
    # table draws candidates only for full reports, one loop per report and
    # never for a restriction (a name with a "/"), and calls restrict once
    # per diagram, on its full subset, for the full report: no restricted
    # instance is built.
    names, full = [], []
    candidates, restriction = pvcore._candidates, pvcore.restrict

    def recording(pv, seed):
        names.append(pv.name)
        return candidates(pv, seed)

    def recording_restrict(pv, indices):
        full.append(sorted(set(indices)) == list(range(len(pv.components))))
        return restriction(pv, indices)

    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    monkeypatch.setattr(pvcore, "_candidates", recording)
    monkeypatch.setattr(pvcore, "restrict", recording_restrict)
    for d in SWEEP:
        classify(d, "both", 0)
    assert len(names) == 927 and not [name for name in names if "/" in name]
    assert len(full) == 927 and all(full)
    assert len(pvcore._PIECE_VERDICTS) == 994


def test_level_one_is_split_once_per_diagram(monkeypatch):
    # The builder splits level 1 once; N_x reads only the action matrix and
    # the form, so neither piece verdicts nor the det N determinant split
    # again.  An empty piece-verdict table makes the piece verdicts run
    # whatever tests ran before this one.
    diagrams = [WeightedDiagram(SimpleType(family, 5), circled)
                for family in "AD" for size in (2, 3, 4)
                for circled in itertools.combinations(range(1, 6), size)]
    calls = []
    split = grading.components

    def counting(d):
        calls.append(d)
        return split(d)

    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
    monkeypatch.setattr(grading, "components", counting)
    for d in diagrams:
        classify(d, "both", 0)
    assert calls == diagrams and len(diagrams) == 50


def test_is_regular_sum_checks_its_subset():
    # The subset is checked as restrict checks it: no component, or an index
    # outside range(len(components)), raises EmptySubset.
    for pv in (build_parabolic_pv(parse_diagram("A3[1,3]")), build_model("dual-pair:n=2").instance):
        lattice = SubsetLattice(pv)
        for subset in ((), (5,), (-1,), (0, 2)):
            with pytest.raises(EmptySubset):
                lattice.is_regular_sum(subset)
            with pytest.raises(EmptySubset):
                restrict(pv, subset)


def test_filtration_requires_regularity():
    with pytest.raises(NotRegular):
        decompose_filtration(build_parabolic_pv(parse_diagram("A3[1]")))


def test_filtration_single_stage():
    rep = decompose_filtration(build_parabolic_pv(parse_diagram("A3[2]")))
    assert len(rep.stages) == 1
    assert rep.stages[-1].reductive


# ---------------------------------------------------------------------------
# invariant certification


def test_verify_invariant_accepts_pairing():
    spec = dual_pair(2)
    mi = spec.invariants[0]
    rep = verify_invariant(spec.instance, mi.invariant)
    # dim_g (d / 2^61)^2 with dim_g = 5 and d = 2.
    assert rep.error_bound == Fraction(5 * 2 ** 2, 2 ** 122)


@pytest.mark.parametrize("gate,fake", [
    ("dual-pair:n=2", lambda f: Invariant("coordinate", 1, lambda x: x[0])),
    ("matrix-pair:p=2,q=3,r=2",
     lambda f: Invariant("det(YX) x9", 5, lambda x: f.evaluate(x) * x[9])),
    ("vector-skew:n=5", lambda f: Invariant("Pf x4", 4, lambda x: f.evaluate(x) * x[4])),
], ids=["coordinate", "det-times-coordinate", "pfaffian-times-coordinate"])
def test_non_invariant_direction_is_the_first_failing_operator(gate, fake):
    # check (a) reads each operator's derivative off one gradient per point;
    # the operator it names must be the first whose line derivative along
    # M_i x, taken point by point at the reference and the wide samples, is
    # not proportional to f.
    spec = build_model(gate)
    pv = spec.instance
    assert pv.dim_g > pv.dim_v
    f = fake(spec.invariants[0].invariant)
    xs = invariant_samples(pv, f)
    vals = [f.evaluate(x) for x in xs]
    images = [list(zip(*pvcore._action_columns(pv, x))) for x in xs]
    w1, _, _ = pvcore._derivative_weights(f.degree)

    def line_derivative(x, v, u):  # scale times the derivative of f along u
        return w1[0] * v + sum(w * f.evaluate([a + j * b for a, b in zip(x, u)])
                               for j, w in enumerate(w1) if j)

    def proportional(mi):
        pairs = [(line_derivative(x, v, image[mi]), v) for x, v, image in zip(xs, vals, images)]
        g0, v0 = next((g, v) for g, v in pairs if v)
        return all(g * v0 == g0 * v for g, v in pairs)

    want = next(mi for mi in range(pv.dim_g) if not proportional(mi))
    with pytest.raises(NotRelativeInvariant) as err:
        verify_invariant(pv, f, expect_nondegenerate=False)
    assert err.value.direction == want


def test_a_zero_first_sample_leaves_the_report(monkeypatch):
    # Every check reads the reference sample, the first where f does not
    # vanish.  With the first sample moved to the zero vector, where Q
    # vanishes, the reference is the next sample and the report is unchanged.
    spec = dual_pair(2)
    mi = spec.invariants[0]
    want = verify_invariant(spec.instance, mi.invariant)
    vector, drawn = Stream.vector, []

    def zero_first(self, length):
        drawn.append(vector(self, length))
        return [0] * length if len(drawn) == 1 else drawn[-1]

    monkeypatch.setattr(Stream, "vector", zero_first)
    got = verify_invariant(spec.instance, mi.invariant)
    assert mi.invariant.evaluate(drawn[0]) != 0
    assert got == want


def test_a_violation_only_where_f_vanishes_is_found(monkeypatch):
    # f = x0 x1 on dual-pair(n=2), with x0 = 0 at both wide samples: f
    # vanishes everywhere but at the reference, so no ratio of nonzero
    # values can differ, and only a nonzero derivative at a zero of f shows
    # that f is not relatively invariant.  There grad f = x1 e_0, so the
    # derivative along M x is x1 (M x)_0.
    pv = dual_pair(2).instance
    f = Invariant("x0 x1", 2, lambda x: x[0] * x[1])
    wide_vector = Stream.wide_vector

    def zero_x0(self, length):
        x = wide_vector(self, length)
        x[0] = 0
        return x

    monkeypatch.setattr(Stream, "wide_vector", zero_x0)
    with pytest.raises(NotRelativeInvariant) as err:
        verify_invariant(pv, f, expect_nondegenerate=False)
    reference, *zeros = invariant_samples(pv, f)
    assert f.evaluate(reference) != 0 and not any(f.evaluate(x) for x in zeros)
    want = next(mi for mi in range(pv.dim_g)
                if any(x[1] * pvcore._action_columns(pv, x)[0][mi] for x in zeros))
    assert err.value.direction == want


def test_agreement_with_q_on_the_small_cube_is_not_invariance():
    # P(t) = prod_{k=-9..9} (t - k) vanishes to second order in P(x0)^2 at
    # every small coordinate, so at every point of [-9, 9]^4 f = Q + P(x0)^2
    # has Q's value and gradient, and small samples alone would pass f with
    # Q's constants.  f is not relatively invariant; the wide samples show it.
    q = dual_pair(2).invariants[0].invariant

    def f(x):
        return q.evaluate(x) + prod(x[0] - k for k in range(-9, 10)) ** 2

    with pytest.raises(NotRelativeInvariant):
        verify_invariant(dual_pair(2).instance, Invariant("Q + P(x0)^2", 38, f),
                         expect_nondegenerate=False)


FROZEN_SAMPLES = [
    [4, 0, 3, 1],
    [1226646223015838351, 754462646888449941, 1766951868329961478, 2239799268979316992],
    [337894838516608646, 2220473446973099714, 836340472555484736, 2166399132131836359],
]


def test_invariant_samples_are_frozen():
    # The reference and the wide samples of Q on dual-pair(n=2) at seed 0:
    # splitmix64 draws, bit-stable across runs, versions and machines.
    spec = dual_pair(2)
    assert invariant_samples(spec.instance, spec.invariants[0].invariant) == FROZEN_SAMPLES


def test_an_invariant_vanishing_at_every_sample_is_degenerate():
    zero = Invariant("zero", 2, lambda x: 0)
    with pytest.raises(DegenerateInvariant, match="zero vanishes at all 20 sample points"):
        verify_invariant(dual_pair(2).instance, zero, expect_nondegenerate=False)


# Calls of each gate's evaluator in verify_invariant at seed 0 (the gates of
# tests/test_acceptance.py).
INVARIANT_EVALUATIONS = {
    "matrix-pair:p=2,q=3,r=2": 411,
    "skew-pair:p=4,r=5": 3153,
    "skew-pair:p=2,r=5": 183,
    "vector-skew:n=5": 453,
    "dual-pair:n=2": 39,
    "dual-pair:n=3": 69,
    "descending-chains:n=1": 15,
    "descending-chains:n=2": 198,
}


def test_invariant_verification_evaluation_counts():
    # One scaled gradient per sample point, from f(x + j e_i) for
    # j = 1..degree, serves check (a); at the Hessian point it and the
    # Hessian diagonal from the same values serve (b) and (c).  At seed 0
    # the first small draw is the reference x_b for every gate, so each
    # invariant costs (1 + WIDE_POINTS) (1 + dim_v degree) evaluations for
    # the values and (a), and degree per off-diagonal Hessian entry at each
    # Hessian point tried (x_b alone at seed 0, on the invariants that must
    # be nondegenerate).
    for gate, want in INVARIANT_EVALUATIONS.items():
        spec = build_model(gate)
        n = spec.instance.dim_v
        calls = []
        formula = 0
        for mi in spec.invariants:
            f = mi.invariant
            counted = Invariant(f.name, f.degree,
                                lambda x, ev=f.evaluate: calls.append(1) or ev(x))
            verify_invariant(spec.instance, counted, seed=0,
                             expect_nondegenerate=mi.nondegenerate)
            formula += ((1 + pvcore.WIDE_POINTS) * (1 + n * f.degree)
                        + mi.nondegenerate * f.degree * n * (n - 1) // 2)
        assert (len(calls), formula) == (want, want), gate
    assert sum(INVARIANT_EVALUATIONS.values()) == 4521


def test_hessian_of_a_linear_form_makes_no_evaluation():
    # At degree 1 every second-derivative weight is zero, so the polarized
    # Hessian is the zero matrix and no point is evaluated.
    calls = []
    f = Invariant("x0 + 2 x2", 1, lambda x: calls.append(1) or x[0] + 2 * x[2])
    w1, w2, _ = pvcore._derivative_weights(1)
    assert not any(w2)
    x = [3, -1, 4, 1]
    fx = f.evaluate(x)
    grad, diag = pvcore._axis_derivatives(f, x, fx, w1, w2)
    assert (grad, diag, len(calls)) == ([1, 0, 2, 0], [0, 0, 0, 0], 5)
    assert pvcore._hessian(f, x, fx, w2, diag) == [[0] * 4 for _ in range(4)]
    assert len(calls) == 5


def test_verify_invariant_flags_degenerate_hessian():
    # A zero Hessian determinant, and the two Euler identities that certify
    # the graded-logarithm rank at the Hessian point.  Q labelled degree 3
    # has a nonzero Hessian and full graded-log rank 4, but is not
    # homogeneous of degree 3.  Q + (x0 - p0)^2, with p the first sample
    # point, has Q's value and gradient at p but not its Hessian; with no
    # operators, check (a) passes it.
    chain, pair = diag_chain(1, 3), dual_pair(2)
    q = pair.invariants[0].invariant
    bare = dataclasses.replace(pair.instance, operators=())
    p0 = Stream(0, context=f"invariant:{bare.name}:bent Q").vector(bare.dim_v)[0]
    bent = Invariant("bent Q", 2, lambda x: q.evaluate(x) + (x[0] - p0) ** 2)
    cases = [(chain.instance, chain.invariants[0].invariant, "Hessian determinant zero"),
             (pair.instance, Invariant("mislabelled", 3, q.evaluate),
              "Euler's identity grad . x = d f fails, d = 3"),
             (bare, bent, "Euler's identity H x = (d - 1) grad fails, d = 2")]
    for pv, f, message in cases:
        with pytest.raises(DegenerateInvariant, match=re.escape(message)):
            verify_invariant(pv, f, expect_nondegenerate=True)
        # Without the nondegeneracy demand the same invariant certifies fine.
        verify_invariant(pv, f, expect_nondegenerate=False)


def test_hessian_identity_violation_on_wrong_degree():
    spec = dual_pair(2)
    q = spec.invariants[0].invariant
    lying = Invariant("mislabelled", 3, q.evaluate)
    with pytest.raises(IdentityViolation):
        hessian_product_identity_check(lying, spec.instance.dim_v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.integers(-99, 99), min_size=1, max_size=d + 1))))
def test_integer_derivative_weights_are_exact(case):
    degree, coeffs = case
    w1, w2, scale = pvcore._derivative_weights(degree)
    assert all(type(w) is int for w in (*w1, *w2, scale)) and scale > 0

    def p(t):
        return sum(c * t ** k for k, c in enumerate(coeffs))

    first = coeffs[1] if len(coeffs) > 1 else 0
    second = 2 * coeffs[2] if len(coeffs) > 2 else 0
    assert sum(w * p(j) for j, w in enumerate(w1)) == scale * first
    assert sum(w * p(j) for j, w in enumerate(w2)) == scale ** 2 * second


@pytest.mark.parametrize("model,point", [
    ("vector-skew:n=3", [3, -1, 4, 1, -5, 9]),
    ("vector-skew:n=5", [2, -7, 1, 8, -2, 8, 1, -8, 2, 8, -4, 5, 9, 0, -4]),
])
def test_hessian_and_gradient_match_sympy(model, point):
    spec = build_model(model)
    f = spec.invariants[0].invariant
    syms = sympy.symbols(f"x0:{spec.instance.dim_v}")
    expr = sympy.expand(f.evaluate(list(syms)))
    at = dict(zip(syms, point))
    fx = f.evaluate(point)
    w1, w2, scale = pvcore._derivative_weights(f.degree)
    hess = sympy.hessian(expr, syms).subs(at)
    want = [[2 * scale ** 2 * int(hess[i, j]) for j in range(len(syms))]
            for i in range(len(syms))]
    grad, diag = pvcore._axis_derivatives(f, point, fx, w1, w2)
    assert diag == [scale ** 2 * int(hess[i, i]) for i in range(len(syms))]
    assert pvcore._hessian(f, point, fx, w2, diag) == want
    assert any(any(row) for row in want)
    assert grad == [scale * int(sympy.diff(expr, s).subs(at)) for s in syms]


def test_rational_coefficient_invariant_is_certified_exactly():
    # Halving the polarized Hessian with // would floor these Fraction
    # entries; the integer scaling must never divide.
    spec = dual_pair(3)
    mi = spec.invariants[0]
    third = Invariant("Q/3", 2, lambda x: Fraction(1, 3) * mi.invariant.evaluate(x))
    rep = verify_invariant(spec.instance, third)
    base = verify_invariant(spec.instance, mi.invariant)
    assert rep.constants == base.constants
    hessian_product_identity_check(third, spec.instance.dim_v)


def test_gate_invariant_reports_are_frozen():
    # tests/data/invariant_reports_seed0.json holds the reports of the
    # eight invariant gates at seed 0, as computed at Fraction sample points.
    frozen = json.loads((Path(__file__).parent / "data" / "invariant_reports_seed0.json")
                        .read_text())
    rows = []
    for model in dict.fromkeys(row["model"] for row in frozen):
        spec = build_model(model)
        for mi in spec.invariants:
            rep = verify_invariant(spec.instance, mi.invariant, seed=0,
                                   expect_nondegenerate=mi.nondegenerate)
            assert all(type(c) is Fraction for c in rep.constants)
            rows.append({"model": model, "invariant": rep.name,
                         "constants": [str(c) for c in rep.constants]})
    assert len(rows) == 9
    assert rows == frozen


def test_matrix_pair_unipotent_witness():
    # p != r: prehomogeneous but the isotropy meets the form radical.
    spec = matrix_pair(1, 3, 2)
    rep = is_regular(spec.instance)
    assert rep.prehomogeneous and not rep.reductive and not rep.regular
    assert rep.form_determinant == 0
