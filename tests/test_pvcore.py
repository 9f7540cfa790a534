"""The exact oracle: generic points, isotropy, regularity, invariant counts."""
from __future__ import annotations

from fractions import Fraction

import pytest

from pvlab._linalg import matvec
from pvlab.diagram import parse_diagram
from pvlab.models import diag_chain, dual_pair, matrix_pair
from pvlab.pvcore import (DegenerateInvariant, EmptySubset, IdentityViolation, Invariant,
                          NonGenericPoint, NotRegular, NotRelativeInvariant,
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


def test_matrix_pair_unipotent_witness():
    # p != r: prehomogeneous but the isotropy meets the form radical.
    spec = matrix_pair(1, 3, 2)
    rep = is_regular(spec.instance)
    assert rep.prehomogeneous and not rep.reductive and not rep.regular
    assert rep.form_determinant == 0
