"""The exact oracle: generic points, isotropy, regularity, invariant counts."""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab import pvcore
from pvlab._linalg import matvec
from pvlab.diagram import parse_diagram
from pvlab.models import build_model, diag_chain, dual_pair, matrix_pair, sym_vector, verify_model
from pvlab.pvcore import (DegenerateInvariant, EmptySubset, IdentityViolation, Invariant,
                          NonGenericPoint, NotRegular, NotRelativeInvariant, SubsetLattice,
                          build_parabolic_pv, completely_q_reducible,
                          count_fundamental_invariants, decompose_filtration,
                          generic_point, hessian_product_identity_check, is_reductive,
                          is_regular, isotropy_algebra, q_irreducible, restrict,
                          verify_invariant)


def test_parabolic_instance_shapes():
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    assert pv.dim_v == 4
    assert pv.dim_g == 5            # Cartan (3) + the theta pair
    assert len(pv.components) == 2
    assert [len(c) for c in pv.components] == [2, 2]
    assert len(pv.characters) == 2  # one character per circled node


def test_generic_point_determinism():
    pv = build_parabolic_pv(parse_diagram("A4[1,2]"))
    a = generic_point(pv, seed=3)
    b = generic_point(pv, seed=3)
    assert a == b
    c = generic_point(pv, seed=4)
    assert c.orbit_rank == a.orbit_rank  # verdict is seed-stable


def test_isotropy_vectors_annihilate_the_point():
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    x = generic_point(pv).vector
    iso = isotropy_algebra(pv, x)
    assert len(iso) == pv.dim_g - generic_point(pv).orbit_rank
    for s in iso:
        image = [0] * pv.dim_v
        for b, sb in enumerate(s):
            if sb:
                col = matvec(pv.operators[b], x)
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
    x = generic_point(pv).vector
    offset = 0
    for i, comp in enumerate(pv.components):
        sub = restrict(pv, (i,))
        proj = list(x[offset:offset + len(comp)])
        offset += len(comp)
        iso = isotropy_algebra(sub, proj)
        assert sub.dim_g - len(iso) == generic_point(sub).orbit_rank


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
    assert completely_q_reducible(build_parabolic_pv(parse_diagram("F4[1,2]")))
    assert not completely_q_reducible(build_parabolic_pv(parse_diagram("D9[2,3,5,8]")))


def test_one_irreducible_implies_q_irreducible():
    # Verdict-level hierarchy: a single fundamental invariant plus
    # regularity forces Q-irreducibility.
    for text in ("A3[1,3]", "B3[1,3]", "C6[2,5]"):
        pv = build_parabolic_pv(parse_diagram(text))
        rep = is_regular(pv)
        if rep.regular and rep.n_fundamental_invariants == 1:
            assert q_irreducible(pv).q_irreducible


def test_count_fundamental_invariants_rejects_special_points():
    pv = build_parabolic_pv(parse_diagram("A3[1,3]"))
    with pytest.raises(NonGenericPoint):
        count_fundamental_invariants(pv, [0] * pv.dim_v)


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


def test_filtration_requires_regularity():
    with pytest.raises(NotRegular):
        decompose_filtration(build_parabolic_pv(parse_diagram("A3[1]")))


def test_filtration_single_stage():
    rep = decompose_filtration(build_parabolic_pv(parse_diagram("A3[2]")))
    assert len(rep.stages) == 1
    assert rep.final_reductive


# ---------------------------------------------------------------------------
# invariant certification


def test_verify_invariant_accepts_pairing():
    spec = dual_pair(2)
    mi = spec.invariants[0]
    rep = verify_invariant(spec.instance, mi.invariant, group_checks=mi.group_checks)
    assert rep.points_checked == 20
    assert rep.hessian_nonzero
    assert rep.dlog_rank == spec.instance.dim_v
    assert rep.group_elements_checked == 3


def test_verify_invariant_rejects_non_invariant():
    spec = dual_pair(2)
    fake = Invariant("coordinate", 1, lambda x: x[0])
    with pytest.raises(NotRelativeInvariant):
        verify_invariant(spec.instance, fake, expect_nondegenerate=False)


def test_verify_invariant_flags_degenerate_hessian():
    spec = diag_chain(1, 3)
    entry = spec.invariants[0].invariant
    with pytest.raises(DegenerateInvariant):
        verify_invariant(spec.instance, entry, expect_nondegenerate=True)
    # Without the nondegeneracy demand the same invariant certifies fine.
    rep = verify_invariant(spec.instance, entry, expect_nondegenerate=False)
    assert rep.hessian_nonzero is None


def test_hessian_identity_violation_on_wrong_degree():
    spec = dual_pair(2)
    q = spec.invariants[0].invariant
    lying = Invariant("mislabelled", 3, q.evaluate)
    with pytest.raises((IdentityViolation, DegenerateInvariant)):
        hessian_product_identity_check(lying, spec.instance.dim_v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
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
    assert pvcore._hessian(f, point, fx, w2) == want
    assert any(any(row) for row in want)
    assert pvcore._gradient(f, point, fx, w1) == [scale * int(sympy.diff(expr, s).subs(at))
                                              for s in syms]


def test_rational_coefficient_invariant_is_certified_exactly():
    # Halving the polarized Hessian with // would floor these Fraction
    # entries; the integer scaling must never divide.
    spec = dual_pair(3)
    mi = spec.invariants[0]
    third = Invariant("Q/3", 2, lambda x: Fraction(1, 3) * mi.invariant.evaluate(x))
    rep = verify_invariant(spec.instance, third, group_checks=mi.group_checks)
    base = verify_invariant(spec.instance, mi.invariant)
    assert rep.constants == base.constants
    assert rep.hessian_nonzero and rep.dlog_rank == spec.instance.dim_v
    assert rep.group_elements_checked == 3
    ident = hessian_product_identity_check(third, spec.instance.dim_v)
    assert ident.points_checked == 5


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
                                   expect_nondegenerate=mi.nondegenerate,
                                   group_checks=mi.group_checks)
            assert all(type(c) is Fraction for c in rep.constants)
            rows.append({"model": model, "invariant": rep.name,
                         "constants": [str(c) for c in rep.constants],
                         "points_checked": rep.points_checked,
                         "hessian_nonzero": rep.hessian_nonzero,
                         "dlog_rank": rep.dlog_rank,
                         "group_elements_checked": rep.group_elements_checked})
    assert len(rows) == 9
    assert rows == frozen


def test_matrix_pair_unipotent_witness():
    # p != r: prehomogeneous but the isotropy meets the form radical.
    spec = matrix_pair(1, 3, 2)
    rep = is_regular(spec.instance)
    assert rep.prehomogeneous and not rep.reductive and not rep.regular
    assert rep.form_determinant == 0
