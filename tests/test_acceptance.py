"""End-to-end gates, one test per release criterion (run with -v for the
one-line pass/fail per gate).

Each test here is intentionally self-contained: it re-derives its verdicts
through the public API only, so a green run certifies the advertised
behavior rather than internal agreement between modules.
"""
from __future__ import annotations

import ast
import importlib
import itertools
import json
import time
from collections import Counter
from math import prod
from operator import mul
from pathlib import Path

import pvlab
from pvlab import pvcore
from pvlab._linalg import det, kernel_basis
from pvlab.chevalley import chevalley_basis
from pvlab.classify import classify, enumerate_reports
from pvlab.cli import main
from pvlab.diagram import WeightedDiagram, parse_diagram, render_compact, subdiagram
from pvlab.grading import components, compute_grading
from pvlab.models import (MODELS, build_model, descending_chains, diag_chain,
                          dual_pair, matrix_pair, skew_pair, sym_vector, vector_skew,
                          verify_model)
from pvlab.pvcore import (Invariant, SubsetLattice, build_parabolic_pv,
                          decompose_filtration, is_regular, q_irreducible, restrict)
from pvlab.rootsys import SimpleType, build_root_system, split_pieces

from _instances import (FROZEN_LARGE, SECOND_CATALOG_TYPES, SWEEP, SWEEP_TYPES,
                        ad_square_by_index, dense_operator, grading_pairing,
                        hessian_product_identity_check, identity, is_m_over_kappa,
                        isotropy_algebra, kappas, length_rule, simple_root, sl2_triple_neutral)

DATA = Path(__file__).parent / "data"


# The complete catalog of multi-circle Q-irreducible diagrams in the sweep
# range, frozen after three independent seeded oracle passes.
CATALOG = frozenset({
    "A3[1,3]", "A4[1,4]", "A5[1,5]", "A6[1,6]", "A6[2,5]", "A7[1,7]", "A7[2,6]",
    "B3[1,3]", "B4[1,4]", "B5[1,5]", "B6[1,6]", "B7[1,7]",
    "C6[2,5]", "C7[2,6]",
    "D5[2,4]", "D5[2,5]", "D6[2,5,6]", "D7[2,6,7]",
    "E6[1,2]", "E6[2,6]",
})


def test_family_catalog_reproduction():
    start = time.monotonic()
    for seed in (0, 1, 2):
        # mode="both" raises MismatchError on any pattern/oracle disagreement.
        reports = enumerate_reports(SWEEP_TYPES, mode="both", seed=seed)
        assert len(reports) == 927
        hits = {render_compact(r.diagram) for r in reports
                if r.verdicts.q_irreducible}
        assert hits == CATALOG
        for r in reports:
            if r.verdicts.q_irreducible:
                assert r.family is not None
                assert r.verdicts.regular and r.verdicts.n_invariants == 1
    assert time.monotonic() - start < 600


# The hits of the second catalog (SECOND_CATALOG_TYPES), frozen from a
# seed-0 pass in mode "both".
SECOND_CATALOG = frozenset({"A8[1,8]", "A8[2,7]", "B8[1,8]", "B8[3,7]", "C8[2,7]",
                            "D8[2,7,8]", "E7[2,5]", "E8[1,2]"})


def test_second_catalog_reproduction():
    start = time.monotonic()
    reports = enumerate_reports(SECOND_CATALOG_TYPES, mode="both", seed=0)
    assert len(reports) == 1367
    hits = {render_compact(r.diagram) for r in reports if r.verdicts.q_irreducible}
    assert hits == SECOND_CATALOG
    assert all(r.family is not None for r in reports if r.verdicts.q_irreducible)
    assert time.monotonic() - start < 120


# Probes of the D1 row, M_{m x k} + M_{k x m} under GL_m x GL_k x SO_m with
# m = p1+1 and k = p2+1: p2 of both parities, the tail D2 at the fork
# (p3 = 2), and p3 = 3.  The generic isotropy is GL_{k-m} x SO_m, so its
# dimension is (k-m)^2 + m(m-1)/2; no group name is asserted.
D1_HITS = {"D11[4,9]": (0, 1, 2), "D12[4,10]": (0, 1, 2), "D17[6,14]": (0,)}


def test_d1_row_probes():
    dims = set()
    for text, seeds in D1_HITS.items():
        for seed in seeds:
            rep = classify(parse_diagram(text), mode="both", seed=seed)
            p1, p2, _ = rep.family.params
            m, k = p1 + 1, p2 + 1
            assert rep.family.family == "D1"
            assert rep.verdicts.q_irreducible and rep.verdicts.n_invariants == 1
            assert rep.witnesses.isotropy_dim == (k - m) ** 2 + m * (m - 1) // 2
            dims.add(rep.witnesses.isotropy_dim)
    assert dims == {7, 10, 19}
    not_regular = classify(parse_diagram("D9[4,7]"), mode="both")
    assert not_regular.family is None and not not_regular.verdicts.regular
    reducible = classify(parse_diagram("D10[4,8]"), mode="both")
    assert reducible.family is None and reducible.verdicts.regular
    assert reducible.witnesses.regular_gamma == (4,)


def test_piece_verdicts_match_direct_restriction():
    # The lattice decides a proper component sum from its subdiagram pieces,
    # each a principal minor of the one N_x = A_x F^-1 A_x^t of its diagram
    # at the full report's point (see the pvcore docstring).  On every sweep
    # diagram at seed 0, N is built once: its principal minor on every
    # coordinate, det N, must equal the full report.  Every proper sum is
    # also decided by direct restriction, a product of parabolic PVs and so
    # prehomogeneous by Vinberg's theorem.  That verdict must equal the
    # standalone instances of the sum's pieces, the principal minor at the
    # sum's coordinates, and the lattice's own piece-read verdict.
    standalone: dict[str, bool] = {}

    def piece_regular(piece: WeightedDiagram) -> bool:
        key = render_compact(piece)
        if key not in standalone:
            standalone[key] = is_regular(build_parabolic_pv(piece)).regular
        return standalone[key]

    fulls = sums = regular_sums = 0
    for d in SWEEP:
        pv = build_parabolic_pv(d)
        lattice = SubsetLattice(pv)
        report = lattice.regular(lattice.full)
        assert report.prehomogeneous, d
        n = pvcore._reductivity_matrix(pv, pvcore._action_columns(pv, report.generic_point))[0]
        assert pvcore.principal_minor_regular(pv, lattice.full, n) == report.regular, d
        fulls += 1
        for k in range(1, len(lattice.full)):
            for subset in itertools.combinations(lattice.full, k):
                gamma = [d.circled[i] for i in subset]
                report = lattice.regular(subset)
                assert report.prehomogeneous, (d, gamma)
                direct = report.regular
                pieces = all(piece_regular(p) for _, p in subdiagram(d, gamma).pieces)
                minor = pvcore.principal_minor_regular(pv, subset, n)
                assert direct == pieces == minor == lattice.is_regular_sum(subset), (d, gamma)
                sums += 1
                regular_sums += direct
    assert (fulls, sums, regular_sums) == (927, 11698, 5199)


def test_ad_square_criterion_matches_the_gram_determinant(monkeypatch):
    # M = A_x B_x, (ad x)^2 from level -1 to level 1, is N_x D_kappa, so its
    # principal minors decide regularity as N's do, with no isotropy kernel
    # and no Gram matrix.  On every sweep diagram at seed 0, M's minors, read
    # by principal_minor_regular from the reference M built by basis index,
    # must agree with is_regular on the full instance and on the direct
    # restriction to every proper sum the lattice queries while classifying.
    # Each of those is a product of parabolic PVs, so by Vinberg's theorem
    # it is prehomogeneous, and the report must say so.  M is built once per
    # diagram, at the full report's point.
    queried = []
    original = SubsetLattice.is_regular_sum

    def recording(lattice, subset):
        queried.append(subset)
        return original(lattice, subset)

    monkeypatch.setattr(SubsetLattice, "is_regular_sum", recording)
    fulls = sums = regular_sums = 0
    for d in SWEEP:
        lattice = SubsetLattice(build_parabolic_pv(d))
        queried.clear()
        lattice.q_irreducibility()
        lattice.completely_q_reducible(lattice.full)
        report = lattice.regular(lattice.full)
        assert report.prehomogeneous, d
        mt = ad_square_by_index(lattice.pv, report.generic_point)
        assert pvcore.principal_minor_regular(lattice.pv, lattice.full, mt) == report.regular, d
        fulls += 1
        for subset in set(queried) - {lattice.full}:
            report = is_regular(restrict(lattice.pv, subset))
            assert report.prehomogeneous, (d, subset)
            direct = report.regular
            assert pvcore.principal_minor_regular(lattice.pv, subset, mt) == direct, (d, subset)
            sums += 1
            regular_sums += direct
    assert (fulls, sums, regular_sums) == (927, 6128, 2052)


def _restricted_n(pv, subset, x):
    """c N of the restriction to ``subset`` at the projection of x, built
    from the restricted instance alone: its own action matrix and the form."""
    coords = [c for i in subset for c in pv.components[i]]
    sub = restrict(pv, subset)
    return pvcore._reductivity_matrix(sub, pvcore._action_columns(sub, [x[c] for c in coords]))[0]


def test_principal_minor_is_the_restricted_m(monkeypatch):
    # A piece verdict reads the principal submatrix of its diagram's N at the
    # sum's coordinates, which is the sum's own N at the projected point (see
    # the pvcore docstring).  Built the long way, from the restricted
    # instance, it must be the same matrix on every proper sum of the sweep
    # diagrams up to rank 5, and on every proper sum the lattice queries
    # while classifying the nine large diagrams.  Each full N is also
    # D_kappa^-1 M, for the reference M built by basis index.
    def minor(mt, pv, subset):
        coords = [c for i in subset for c in pv.components[i]]
        return [[mt[r][c] for c in coords] for r in coords]

    checked = 0
    for d in SWEEP:
        if d.type.rank <= 5:
            pv = build_parabolic_pv(d)
            x = is_regular(pv).generic_point
            a = pvcore._action_columns(pv, x)
            n, c, _ = pvcore._reductivity_matrix(pv, a)
            assert is_m_over_kappa(pv, n, c, ad_square_by_index(pv, x, a)), d
            for k in range(1, len(d.circled)):
                for subset in itertools.combinations(range(len(d.circled)), k):
                    assert minor(n, pv, subset) == _restricted_n(pv, subset, x), (d, subset)
                    checked += 1
    queried = []
    original = SubsetLattice.is_regular_sum

    def recording(lattice, subset):
        queried.append((lattice, subset))
        return original(lattice, subset)

    monkeypatch.setattr(SubsetLattice, "is_regular_sum", recording)
    large = 0
    for text in FROZEN_LARGE:
        queried.clear()
        classify(parse_diagram(text), "both", 0)
        [lattice] = {lattice for lattice, _ in queried}
        pv, x = lattice.pv, lattice.regular(lattice.full).generic_point
        a = pvcore._action_columns(pv, x)
        n, c, _ = pvcore._reductivity_matrix(pv, a)
        assert is_m_over_kappa(pv, n, c, ad_square_by_index(pv, x, a)), text
        for subset in {subset for _, subset in queried} - {lattice.full}:
            assert minor(n, pv, subset) == _restricted_n(pv, subset, x), (text, subset)
            large += 1
    assert (checked, large) == (960, 26)


def test_full_reports_equal_the_piece_verdicts_before_them(monkeypatch):
    # Full reports and piece verdicts share one table, keyed by the diagram
    # alone, and each writer leaves an entry standing.  Run in
    # descending order (E6, D7 ... A1, most circles first), the sweep meets
    # most multi-circle diagrams as pieces before their own full reports,
    # and each full report must equal the piece verdict already there.
    for seed in (0, 1):
        table: dict = {}
        monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", table)
        met = 0
        for d in reversed(SWEEP):
            before = table.get(d)
            regular = classify(d, "both", seed).verdicts.regular
            if before is not None:
                assert regular == before, d
                met += 1
            assert table[d] == regular, d
        assert met == 242, seed


def test_ad_square_reads_the_brackets_the_basis_indices_give(monkeypatch):
    # pvcore builds c N_x = A_x (c F^-1) A_x^t from the action matrix and the
    # form alone, with no bracket; the reference M = A_x B_x expands each
    # bracket [x, e_-r] through e_index and bracket.  N must be D_kappa^-1 M
    # entry for entry at the first candidate of every sweep diagram and of
    # the nine large ones, and on every N built in a seed-0 pass over the
    # sweep, and then over the large diagrams, each from an empty
    # piece-verdict table: one per full report that takes its form
    # determinant from det N, plus one per lattice with a piece-verdict miss
    # whose full report kept none, all on full instances.  No N is built
    # twice for one instance at one point.
    large = [parse_diagram(s) for s in FROZEN_LARGE]
    for d in SWEEP + large:
        pv = build_parabolic_pv(d)
        x = next(pvcore._candidates(pv, 0))
        a = pvcore._action_columns(pv, x)
        n, c, _ = pvcore._reductivity_matrix(pv, a)
        assert is_m_over_kappa(pv, n, c, ad_square_by_index(pv, x, a)), d
    decided, built, points = [], [], {}
    decide, reductivity = pvcore.principal_minor_regular, pvcore._reductivity_matrix
    action = pvcore._action_columns

    def checking(pv, subset, n):
        decided.append(pv.diagram)
        return decide(pv, subset, n)

    def acting(pv, x):  # the point behind each A_x, for N's reference M
        a = action(pv, x)
        points[id(a)] = a, tuple(x)
        return a

    def compared(pv, a):
        n, c, det_f = reductivity(pv, a)
        x = points[id(a)][1]
        assert is_m_over_kappa(pv, n, c, ad_square_by_index(pv, x, a)), pv.name
        built.append((pv.diagram, x))
        return n, c, det_f

    monkeypatch.setattr(pvcore, "principal_minor_regular", checking)
    monkeypatch.setattr(pvcore, "_action_columns", acting)
    monkeypatch.setattr(pvcore, "_reductivity_matrix", compared)
    counts = []
    for batch in (SWEEP, large):
        monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", {})
        decided.clear()
        built.clear()
        for d in batch:
            classify(d, "both", 0)
            points.clear()
        assert None not in {d for d, _ in built}
        assert len(set(built)) == len(built)
        counts.append((len(decided), len(built)))
    assert counts == [(67, 297), (20, 8)]


def test_regular_reports_carry_an_sl2_triple():
    # With M = A_x B_x invertible on all of level 1, y = 2 M^-1 x and
    # H = [x, y] form an sl2-triple, checked exactly with the Chevalley
    # brackets (see the pvcore docstring).  Its neutral element H is the
    # grading element H_0 exactly when the Killing pairing of H_0 with every
    # isotropy vector vanishes, one dot product each (grading_pairing).  The
    # second catalog's 389 regular reports are checked in scans/.
    regular, neutral = 0, 0
    for t in SWEEP_TYPES:
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
    assert (regular, neutral) == (329, 161)


# The Q-irreducible hits of both catalogs whose sl2-triple (y, H, x) has the
# grading element H_0 as its neutral element H: the A row and no other.  On
# the open orbit H moves with x by the level-0 group, which fixes H_0, so
# whether H = H_0 does not depend on the generic point; seeds 0 and 1 must
# agree.
NEUTRAL_IS_GRADING = frozenset({"A3[1,3]", "A4[1,4]", "A5[1,5]", "A6[1,6]", "A6[2,5]",
                                "A7[1,7]", "A7[2,6]", "A8[1,8]", "A8[2,7]"})


def test_neutral_element_of_each_hit_is_frozen():
    for seed in (0, 1):
        grading = set()
        for text in sorted(CATALOG | SECOND_CATALOG):
            pv = build_parabolic_pv(parse_diagram(text))
            report = is_regular(pv, seed)
            assert report.regular, text
            if sl2_triple_neutral(pv, report.generic_point):
                grading.add(text)
        assert grading == NEUTRAL_IS_GRADING, seed


def test_form_determinant_from_det_m_matches_the_gram_determinant(monkeypatch):
    # is_regular computes a report's form determinant from det N_x when its
    # cost rule, 24 dim_v^3 < k^3 (2b + 8) with k the isotropy dimension and
    # b the bit length of the last pivot, finds it cheaper (Jacobi's
    # complementary minors; see the pvcore docstring), and from the Gram
    # matrix otherwise.  Here the Gram determinant and the same formula read
    # from the reference M = N_x D_kappa,
    #     det F * det M * prod_f c_f^2 / (prod_r kappa_r * det(A_P)^2),
    # are computed at is_regular's own point on every sweep diagram and
    # every `large` diagram, at seeds 0 and 1, whichever the rule picks: they
    # must equal each other and the report, sign included.  A report keeps
    # c N_x, equal to c D_kappa^-1 M^T, exactly when it took det N_x.
    gram = pvcore.is_reductive
    gram_calls = []

    def recording_gram(pv, iso):
        gram_calls.append(pv.name)
        return gram(pv, iso)

    monkeypatch.setattr(pvcore, "is_reductive", recording_gram)
    large_json = json.loads((DATA / "large_classify_seed0.json").read_text())
    large = [parse_diagram(text) for text in large_json]
    picks = {}
    for seed in (0, 1):
        picked = {}
        for label, diagrams in (("sweep", SWEEP), ("large", large)):
            picked[label] = []
            for d in diagrams:
                pv = build_parabolic_pv(d)
                gram_calls.clear()
                report = is_regular(pv, seed)
                x = report.generic_point
                a = pvcore._action_columns(pv, x)
                iso, _, last_pivot = kernel_basis(a)
                assert iso == [list(s) for s in report.isotropy_basis]
                mt = ad_square_by_index(pv, x, a)
                _, c, det_f = pvcore._form_inverse(pv)
                scale = prod(next(v for v in reversed(s) if v) for s in iso)
                from_m = (det_f * det(mt) * scale ** 2
                          / (prod(kappas(pv)) * last_pivot ** 2))
                assert from_m == gram(pv, iso).determinant == report.form_determinant, (d, seed)
                assert report.reductive == (from_m != 0)
                rule = 24 * pv.dim_v ** 3 < len(iso) ** 3 * (2 * last_pivot.bit_length() + 8)
                n = report.reductivity_matrix
                assert (not gram_calls) == rule == (n is not None), (d, seed)
                if rule:
                    assert is_m_over_kappa(pv, n, c, mt), (d, seed)
                    picked[label].append(pv.name)
        picks[seed] = len(picked["sweep"]), picked["large"]
    large_picks = ["A12[1,12]", "A12[3,10]", "B10[1,10]", "D12[2,11,12]", "A14[2,13]", "E8[1,2]"]
    assert picks == {0: (259, large_picks), 1: (263, large_picks)}


def test_restricted_operators_are_the_parent_submatrices():
    # An operator is its nonzero entries (row, col, value), by rows.  The
    # restriction to a component sum must hold, for each parent operator,
    # the nonzeros of its submatrix on the sum's coordinates, renumbered.
    checked = 0
    for t in SWEEP_TYPES:
        for size in range(2, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                pv = build_parabolic_pv(WeightedDiagram(t, circled))
                dense = [dense_operator(pv, op) for op in pv.operators]
                for k in range(1, size):
                    for subset in itertools.combinations(range(size), k):
                        coords = [c for i in subset for c in pv.components[i]]
                        want = tuple(tuple((a, b, m[r][c]) for a, r in enumerate(coords)
                                           for b, c in enumerate(coords) if m[r][c])
                                     for m in dense)
                        assert restrict(pv, subset).operators == want, (pv.name, subset)
                        checked += 1
    assert checked == 11698


def test_subdiagram_pieces_match_the_closure_split(monkeypatch):
    # The lattice reads the pieces of a proper component sum from
    # subdiagram.  Here they are checked against an independent split: the
    # closure of a circled node is the support of its level-1 component,
    # closures are joined when they share a node or hold adjacent circled
    # nodes, and each piece is the induced piece of one joined union, circled
    # at its relabelled gamma nodes.  Each piece must also key the
    # piece-verdict table by its weighted diagram.  The table here answers every
    # lookup with "regular", so no verdict is computed and every piece of
    # every sum is looked up.
    looked_up = []

    class Recording(dict):
        def __contains__(self, key):
            looked_up.append(key)
            return True

        def __getitem__(self, key):
            return True

    monkeypatch.setattr(pvcore, "_PIECE_VERDICTS", Recording())
    checked = 0
    for t in SWEEP_TYPES + SECOND_CATALOG_TYPES:
        rs = build_root_system(t)
        for size in range(2, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                d = WeightedDiagram(t, circled)
                closures = [{i + 1 for r in c.roots for i, m in enumerate(r) if m}
                            for c in components(d)]
                joined = [{j for j in range(size) if closures[i] & closures[j]
                           or rs.adjacent(d.circled[i], d.circled[j])} for i in range(size)]
                lattice = SubsetLattice(build_parabolic_pv(d), seed=3)
                for k in range(1, size):
                    for subset in itertools.combinations(lattice.full, k):
                        want, left = [], set(subset)
                        while left:
                            group, todo = set(), [min(left)]
                            while todo:
                                i = todo.pop()
                                if i not in group:
                                    group.add(i)
                                    todo.extend(joined[i] & left)
                            left -= group
                            [p] = split_pieces(rs, set().union(*(closures[i] for i in group)))
                            marks = tuple(sorted(p.relabel[d.circled[i]] for i in group))
                            want.append((p.nodes, WeightedDiagram(p.type, marks)))
                        want.sort(key=lambda piece: piece[0])
                        pieces = subdiagram(d, [d.circled[i] for i in subset]).pieces
                        assert list(pieces) == want, (render_compact(d), subset)
                        looked_up.clear()
                        assert lattice.is_regular_sum(subset)
                        assert looked_up == [p for _, p in want]
                        checked += 1
    assert checked == 11698 + 32234


# The multi-circle pairwise-non-adjacent diagrams of E6 up to its mirror
# symmetry: the one catalog row, two non-regular cases, and for the rest the
# proper circled subset whose restriction is the regular part.
E6_REGULAR_PARTS = {
    (1, 2, 5): (1, 2),
    (1, 2, 6): (1, 6),
    (2, 3, 5): (3,),
    (1, 4): (4,),
    (1, 5): (5,),
    (1, 6): (6,),
    (1, 4, 6): (4,),
}


def test_e6_multi_circle_case_analysis():
    e6 = SimpleType("E", 6)

    rep = is_regular(build_parabolic_pv(WeightedDiagram(e6, (1, 2))))
    assert rep.regular
    assert q_irreducible(build_parabolic_pv(WeightedDiagram(e6, (1, 2)))).q_irreducible

    for circled in ((2, 3), (3, 5)):
        rep = is_regular(build_parabolic_pv(WeightedDiagram(e6, circled)))
        assert rep.prehomogeneous
        assert not rep.reductive and not rep.regular
        assert rep.form_determinant == 0  # the non-reductive certificate

    for circled, gamma in E6_REGULAR_PARTS.items():
        pv = build_parabolic_pv(WeightedDiagram(e6, circled))
        assert set(gamma) < set(circled) or len(circled) == 2
        idxs = tuple(i for i, a in enumerate(circled) if a in gamma)
        assert is_regular(restrict(pv, idxs)).regular


def test_worked_example_certificates():
    for n in (2, 3):
        rep = is_regular(dual_pair(n).instance)
        assert rep.regular
        assert rep.n_fundamental_invariants == 1
        assert rep.isotropy_dim == (n - 1) ** 2

    for n in (2, 3, 4):
        spec = sym_vector(n)
        x = spec.pack({"S": identity(n), "v": [[1]] + [[0]] * (n - 1)})
        assert len(isotropy_algebra(spec.instance, x)) == (n - 1) * (n - 2) // 2

    rep = is_regular(vector_skew(5).instance)
    assert rep.regular and rep.isotropy_dim == 11
    assert rep.n_fundamental_invariants == 1


def test_matrix_model_regularity_splits():
    for q in (2, 3, 4):
        for p in range(1, q):
            for r in range(1, q):
                rep = is_regular(matrix_pair(p, q, r).instance)
                assert rep.regular == (p == r), (p, q, r)
                if rep.regular:
                    assert rep.n_fundamental_invariants == 1

    for r in (3, 5):
        for p in range(1, r):
            rep = is_regular(skew_pair(p, r).instance)
            assert rep.regular == (p == r - 1), (p, r)
            if rep.regular:
                assert rep.n_fundamental_invariants == 1

    for q in (3, 4):
        for p in range(1, q):
            rep = is_regular(diag_chain(p, q).instance)
            assert rep.regular == (p == 2), (p, q)
            if rep.regular:
                assert rep.n_fundamental_invariants == 1

    # Degenerate corner outside the sweep hypotheses: Y becomes square, a
    # third invariant appears and the isotropy collapses to a finite group.
    corner = diag_chain(1, 2)
    rep = is_regular(corner.instance)
    assert rep.regular and rep.n_fundamental_invariants == 3
    assert not q_irreducible(corner.instance).q_irreducible


INVARIANT_GATES = (
    "matrix-pair:p=2,q=3,r=2",    # det(YX)
    "skew-pair:p=4,r=5",          # Pf(XtYX), regular case
    "skew-pair:p=2,r=5",          # Pf(XtYX), non-regular case
    "vector-skew:n=5",            # bordered Pfaffian
    "dual-pair:n=2",              # Q(v, w)
    "dual-pair:n=3",
    "descending-chains:n=1",      # P_k tower
    "descending-chains:n=2",
)


def test_closed_form_invariants_certify_exactly():
    for spec_string in INVARIANT_GATES:
        ok, lines = verify_model(build_model(spec_string), seed=0)
        failures = [f"{spec_string} {line.name}: {line.detail}"
                    for line in lines if not line.passed]
        assert ok, failures
        for line in lines:
            if line.name.startswith("invariant "):
                assert "3 points" in line.detail, (spec_string, line)


def test_hessian_product_identity():
    # f^n det H = (1 - d) det(f H - grad grad^t) at five points, on every
    # invariant a gate certifies nondegenerate and on two squares: with
    # det H != 0 it gives the full graded-logarithm rank that
    # verify_invariant reads off Euler's identities, by determinants alone.
    cases = [(mi.invariant, spec.instance.dim_v)
             for spec in map(build_model, INVARIANT_GATES)
             for mi in spec.invariants if mi.nondegenerate]
    pairing_q = dual_pair(2).invariants[0].invariant
    det_yx = matrix_pair(1, 2, 1).invariants[0].invariant
    cases += [(Invariant("Q^2", 4, lambda x: pairing_q.evaluate(x) ** 2), 4),
              (Invariant("det(YX)^2", 4, lambda x: det_yx.evaluate(x) ** 2), 4)]
    assert [(f.name, f.degree, dim) for f, dim in cases] == [
        ("det(YX)", 4, 12), ("Pf(XtYX)", 6, 30), ("borderedPf", 3, 15),
        ("Q", 2, 4), ("Q", 2, 6), ("Q^2", 4, 4), ("det(YX)^2", 4, 4)]
    for f, dim in cases:
        hessian_product_identity_check(f, dim)


def test_structural_property_suite(capsys):
    # Grading dimensions account for the whole algebra on every diagram.
    full_dims = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
                 "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
                 "E": {6: 78, 7: 133, 8: 248}.get, "F": lambda n: 52,
                 "G": lambda n: 14}
    graded_types = ([SimpleType("A", n) for n in range(1, 6)]
                    + [SimpleType("B", n) for n in range(2, 6)]
                    + [SimpleType("C", n) for n in range(3, 6)]
                    + [SimpleType("D", n) for n in range(4, 7)]
                    + [SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
                       SimpleType("F", 4), SimpleType("G", 2)])
    for t in graded_types:
        expected = full_dims[t.family](t.rank)
        for size in range(1, t.rank + 1):
            for subset in itertools.combinations(range(1, t.rank + 1), size):
                g = compute_grading(WeightedDiagram(t, subset))
                assert sum(g.dim_by_level.values()) == expected

    # The length rule equals the Chevalley basis's pairing alpha_a(H_b) on
    # every adjacent pair, every type, rank <= 9.
    rule_types = ([SimpleType("A", n) for n in range(1, 10)]
                  + [SimpleType("B", n) for n in range(2, 10)]
                  + [SimpleType("C", n) for n in range(3, 10)]
                  + [SimpleType("D", n) for n in range(4, 10)]
                  + [SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
                     SimpleType("F", 4), SimpleType("G", 2)])
    for t in rule_types:
        rs = build_root_system(t)
        pairings = chevalley_basis(t).pairings
        for a in range(1, t.rank + 1):
            row = pairings[rs.index(simple_root(t.rank, a))]
            for b in rs.neighbors(a):
                assert length_rule(rs, a, b) == row[b - 1]

    # The three restriction pictures match their golden files byte for byte.
    for gamma, golden in (("2", "subdiagram_d9_gamma_2.txt"),
                          ("2,8", "subdiagram_d9_gamma_2_8.txt"),
                          ("5,8", "subdiagram_d9_gamma_5_8.txt")):
        assert main(["subdiagram", "D9[2,3,5,8]", "--gamma", gamma]) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text()


def test_filtration_stage_sequences():
    rep = decompose_filtration(sym_vector(3).instance)
    assert [s.labels for s in rep.stages] == [("S",), ("v",)]
    assert [s.dim for s in rep.stages] == [6, 3]
    assert all(s.reductive for s in rep.stages)
    assert rep.stages[-1].reductive

    rep = decompose_filtration(descending_chains(2).instance)
    assert [s.labels for s in rep.stages] == [("V[2]",), ("V[1]",)]
    assert rep.stages[-1].isotropy_dim == 0
    assert rep.stages[-1].reductive


def _q_partitions(lattice: SubsetLattice, subset: tuple[int, ...]) -> list[tuple]:
    """Every partition of ``subset`` into blocks with Q-irreducible restrictions."""
    if not subset:
        return [()]
    first, rest = subset[0], subset[1:]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            block = (first,) + extra
            if lattice.q_irreducible(block):
                remaining = tuple(i for i in rest if i not in extra)
                out += [(block,) + p for p in _q_partitions(lattice, remaining)]
    return out


def _structural_theorems(types) -> tuple[int, Counter, int]:
    """Check the abstract's two structural claims on every multi-circle
    diagram of ``types`` at seed 0, and count what was checked.

    (b) A regular PV is a sum of Q-irreducible ones in the filtered sense:
    decompose_filtration completes on every regular diagram, ending in a
    reductive isotropy.  (a) The Q-isotypic components of a completely
    Q-reducible PV are intrinsic.  In parabolic type no two components are
    isomorphic, because each circled node has its own central character
    (grading by that node alone puts its component at level 1 and the
    others at level 0).  So every isotypic component is a single
    component, and (a) says the partition of the components into
    Q-irreducible blocks is unique.

    Returns the number of diagrams, the filtration stage counts of the
    regular ones, and the number of completely Q-reducible ones.
    """
    diagrams = 0
    stages = Counter()
    reducible = 0
    for t in types:
        for size in range(2, t.rank + 1):
            for circled in itertools.combinations(range(1, t.rank + 1), size):
                diagrams += 1
                pv = build_parabolic_pv(WeightedDiagram(t, circled))
                lattice = SubsetLattice(pv)
                partitions = _q_partitions(lattice, lattice.full)
                assert bool(partitions) == lattice.completely_q_reducible(lattice.full)
                if not lattice.regular(lattice.full).regular:
                    assert not partitions, pv.name
                    continue
                rep = decompose_filtration(pv)
                assert rep.stages[-1].reductive, pv.name
                stages[len(rep.stages)] += 1
                if partitions:
                    assert len(partitions) == 1, (pv.name, partitions)
                    assert len(rep.stages) == 1, pv.name
                    reducible += 1
    return diagrams, stages, reducible


def test_structural_theorems_over_the_sweep():
    assert _structural_theorems(SWEEP_TYPES) == (927, {1: 226, 2: 99, 3: 4}, 226)


def test_structural_theorems_over_the_second_catalog():
    # The same claims on rank 8 of A-D, E7, E8, F4 and G2, where the E7 and
    # E8 rows of the family table live.
    assert _structural_theorems(SECOND_CATALOG_TYPES) == (1367, {1: 228, 2: 150, 3: 11}, 228)


def test_out_of_scope_claims_are_not_asserted():
    # The largest-type spot check stays at the level of exact dimension
    # counts; no identification of the isotropy with a named group is made
    # anywhere, and the registry carries exactly the eight shipped models.
    d = parse_diagram("E8[1,7]")
    g = compute_grading(d)
    by_level = {0: 50, 1: 36, 2: 33, 3: 18, 4: 10, 5: 2}
    assert g.dim_by_level == {**by_level,
                              **{-k: v for k, v in by_level.items() if k}}
    assert sum(g.dim_by_level.values()) == 248
    assert {c.alpha: len(c.roots) for c in components(d)} == {1: 16, 7: 20}

    rep = is_regular(build_parabolic_pv(d))
    assert rep.isotropy_dim == 14
    assert rep.reductive

    assert len(MODELS) == 8


def test_public_names_resolve_and_every_import_is_used():
    # Every name in a module's __all__ exists, and no module imports a name
    # it never reads: a removal leaves no dangling export or stale import.
    for path in sorted(Path(pvlab.__file__).parent.glob("*.py")):
        name = "pvlab" if path.stem == "__init__" else "pvlab." + path.stem
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert all(hasattr(module, n) for n in exported), name
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read | set(exported), (name, sorted(imported - read - set(exported)))


def _tracer_targets() -> tuple[tuple[str, str], ...]:
    """The (module, fn) pairs that perfbench/tracing.py wraps."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    targets = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    assert targets
    return targets


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each (module, fn) in TARGETS by
    # getattr(pvlab.<module>, fn), with no default: a traced name that is
    # removed from the package breaks every --trace 1 run.
    missing = [(m, fn) for m, fn in _tracer_targets()
               if not hasattr(importlib.import_module("pvlab." + m), fn)]
    assert not missing, missing


def test_benchmark_tracer_targets_have_callers():
    # A traced name that the package never calls reads 0 calls on every
    # workload.  A call counts when it is on the bare name or on
    # <module>.<name>, outside the function's own definition; a method of
    # the same name (self.q_irreducible) is another function.
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(pvlab.__file__).parent.glob("*.py")}

    def called(module: str, fn: str) -> bool:
        for stem, tree in trees.items():
            for top in tree.body:
                if stem == module and isinstance(top, ast.FunctionDef) and top.name == fn:
                    continue
                for node in ast.walk(top):
                    f = node.func if isinstance(node, ast.Call) else None
                    if (isinstance(f, ast.Name) and f.id == fn
                            or isinstance(f, ast.Attribute) and f.attr == fn
                            and isinstance(f.value, ast.Name) and f.value.id == module):
                        return True
        return False

    uncalled = [(m, fn) for m, fn in _tracer_targets() if not called(m, fn)]
    assert not uncalled, uncalled
