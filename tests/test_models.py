"""Matrix-space models: builders, Pfaffians, and certificate cross-checks."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab._linalg import det, identity, matmul, transpose
from pvlab._rand import Stream
from pvlab.diagram import parse_diagram
from pvlab.models import (MODELS, ModelInvariant, ModelSpec, NotSkew, OddSize,
                          _inv, _layout, _mm, _ModelBuilder, _operator, _sample_gl,
                          _sample_so, _unpack, build_model, descending_chains, diag_chain,
                          dual_pair, generic_det, matrix_pair, pfaffian, skew_pair,
                          sym_vector, vector_skew, verify_model)
from pvlab.pvcore import (GroupCheck, Invariant, build_parabolic_pv, is_regular,
                          isotropy_algebra, q_irreducible)

J2 = [[0, 1], [-1, 0]]


def test_registry_is_frozen():
    assert sorted(MODELS) == ["descending-chains", "det-augmented", "diag-chain",
                              "dual-pair", "matrix-pair", "skew-pair", "sym-vector",
                              "vector-skew"]


# ---------------------------------------------------------------------------
# pfaffian


def test_pfaffian_base_cases():
    assert pfaffian(J2) == 1
    assert pfaffian([[0, -1], [1, 0]]) == -1
    block = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert pfaffian(block) == 1


def test_pfaffian_rejects_bad_input():
    with pytest.raises(OddSize):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(NotSkew):
        pfaffian([[1, 0], [0, 0]])
    with pytest.raises(NotSkew):
        pfaffian([[0, 2], [3, 0]])


@st.composite
def skew_matrices(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    vals = st.integers(min_value=-6, max_value=6)
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z[i][j] = draw(vals)
            z[j][i] = -z[i][j]
    return z


@settings(max_examples=60, deadline=None)
@given(skew_matrices())
def test_pfaffian_squares_to_determinant(z):
    assert pfaffian(z) ** 2 == det(z)


def test_pfaffian_congruence_covariance():
    stream = Stream(5, "pf:congruence")
    z = [[0, 1, 2, -1], [-1, 0, 3, 0], [-2, -3, 0, 2], [1, 0, -2, 0]]
    for _ in range(10):
        g = [[Fraction(stream.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        d = det(g)
        if d == 0:
            continue
        gzgt = [[sum(g[i][k] * z[k][l] * g[j][l] for k in range(4) for l in range(4))
                 for j in range(4)] for i in range(4)]
        assert pfaffian(gzgt) == d * pfaffian(z)


# ---------------------------------------------------------------------------
# the model spec string


def test_build_model_round_trip():
    spec = build_model("matrix-pair:p=2,q=3,r=2")
    assert spec.params == {"p": 2, "q": 3, "r": 2}
    assert spec.name == "matrix-pair(p=2,q=3,r=2)"
    assert spec.instance.dim_v == 2 * (2 * 3)


def test_build_model_tolerates_spacing():
    spec = build_model("dual-pair: n = 3".replace(" ", ""))
    assert spec.params == {"n": 3}


def test_build_model_error_messages():
    with pytest.raises(ValueError, match="unknown model"):
        build_model("octonion-jordan:n=3")
    with pytest.raises(ValueError, match="unknown parameter"):
        build_model("dual-pair:m=3")
    with pytest.raises(ValueError, match="needs an integer"):
        build_model("dual-pair:n=three")
    with pytest.raises(ValueError, match="needs parameters"):
        build_model("matrix-pair:p=2")


def test_builders_validate_parameters():
    with pytest.raises(ValueError):
        dual_pair(1)
    with pytest.raises(ValueError):
        skew_pair(2, 4)   # even r
    with pytest.raises(ValueError):
        skew_pair(5, 5)   # p out of range
    with pytest.raises(ValueError):
        diag_chain(3, 3)  # needs q > p
    with pytest.raises(ValueError):
        descending_chains(4)


def test_pack_inverts_block_layout():
    spec = sym_vector(3)
    x = spec.pack({"S": identity(3), "v": [[7], [0], [0]]})
    assert len(x) == spec.instance.dim_v == 6 + 3
    assert x.count(1) == 3 and x.count(7) == 1


# ---------------------------------------------------------------------------
# self-verification of every sample instance


@pytest.mark.parametrize("spec_string", [
    "dual-pair:n=2",
    "dual-pair:n=3",
    "sym-vector:n=2",
    "sym-vector:n=3",
    "matrix-pair:p=2,q=3,r=2",
    "matrix-pair:p=1,q=3,r=2",
    "matrix-pair:p=3,q=4,r=2",
    "skew-pair:p=2,r=5",
    "skew-pair:p=1,r=3",
    "diag-chain:p=2,q=3",
    "diag-chain:p=1,q=3",
    "diag-chain:p=3,q=4",
    "diag-chain:p=1,q=2",
    "vector-skew:n=3",
    "vector-skew:n=5",
    "det-augmented:n=2",
    "det-augmented:n=3",
    "descending-chains:n=1",
    "descending-chains:n=2",
])
def test_models_verify_against_their_own_certificates(spec_string):
    ok, lines = verify_model(build_model(spec_string), seed=0)
    failures = [f"{line.name}: {line.detail}" for line in lines if not line.passed]
    assert ok, failures


def test_verify_model_reports_every_expected_key():
    spec = dual_pair(2)
    ok, lines = verify_model(spec)
    assert ok
    names = {line.name for line in lines}
    assert set(spec.expected) <= names
    assert "invariant Q" in names


# ---------------------------------------------------------------------------
# closed-form fixtures


def test_dual_pair_isotropy_dimension():
    for n in (2, 3, 4):
        rep = is_regular(dual_pair(n).instance)
        assert rep.regular
        assert rep.isotropy_dim == (n - 1) ** 2
        assert rep.n_fundamental_invariants == 1


def test_sym_vector_isotropy_at_reference_point():
    # At (identity form, first coordinate vector) the stabilizer is the
    # orthogonal algebra of the hyperplane.
    for n in (3, 4, 5):
        spec = sym_vector(n)
        x = spec.pack({"S": identity(n), "v": [[1]] + [[0]] * (n - 1)})
        iso = isotropy_algebra(spec.instance, x)
        assert len(iso) == (n - 1) * (n - 2) // 2


def test_matrix_pair_regular_iff_sides_match():
    for p, q, r in ((1, 2, 1), (2, 3, 2), (1, 3, 2), (2, 4, 3), (3, 4, 3)):
        rep = is_regular(matrix_pair(p, q, r).instance)
        assert rep.regular == (p == r), (p, q, r)


def test_skew_pair_regular_iff_corank_one():
    for p, r in ((1, 3), (2, 3), (2, 5), (4, 5)):
        rep = is_regular(skew_pair(p, r).instance)
        assert rep.regular == (p == r - 1), (p, r)


def test_diag_chain_corner_case():
    rep = is_regular(diag_chain(1, 2).instance)
    assert rep.regular
    assert rep.isotropy_dim == 0
    assert rep.n_fundamental_invariants == 3
    assert not q_irreducible(diag_chain(1, 2).instance).q_irreducible


def test_descending_chains_invariant_degrees():
    spec = descending_chains(3)
    assert [mi.invariant.degree for mi in spec.invariants] == [6, 8, 6]
    assert [mi.invariant.name for mi in spec.invariants] == ["P[1]", "P[2]", "P[3]"]
    assert is_regular(spec.instance).isotropy_dim == 0


# ---------------------------------------------------------------------------
# models agreeing with the graded constructions


def _quadruple(instance, seed=0):
    rep = is_regular(instance, seed=seed)
    return (rep.prehomogeneous, rep.regular, rep.n_fundamental_invariants,
            q_irreducible(instance, seed=seed).q_irreducible)


def test_dual_pair_matches_chain_diagram():
    assert (_quadruple(dual_pair(2).instance)
            == _quadruple(build_parabolic_pv(parse_diagram("A3[1,3]"))))


def test_vector_skew_matches_exceptional_diagram():
    model = vector_skew(5).instance
    graded = build_parabolic_pv(parse_diagram("E6[1,2]"))
    assert model.dim_v == graded.dim_v == 15
    assert _quadruple(model) == _quadruple(graded)
    assert is_regular(model).isotropy_dim == is_regular(graded).isotropy_dim == 11


def _gl_gl_so(m: int, k: int) -> ModelSpec:
    """GL_m x GL_k x SO_m on M_{m x k} + M_{k x m}, acting by
    (X, Y) -> (g1 X g2^-1, g2 Y h^-1), with the relative invariant det(XY).

    This is the D1 row of the family table with the tail acting through
    SO_m; it is regular with generic isotropy GL_{k-m} x SO_m for k > m.
    """
    blocks = _layout([("X", "mat", m, k), ("Y", "mat", k, m)])
    bld = _ModelBuilder(f"gl-gl-so(m={m},k={k})", blocks)
    neg = lambda z: [[-v for v in row] for row in z]  # noqa: E731
    bld.add_gl_factor("g1", m, lambda a: lambda pt: {
        "X": matmul(a, pt["X"]), "Y": [[0] * m for _ in range(k)]})
    bld.add_gl_factor("g2", k, lambda b: lambda pt: {
        "X": neg(matmul(pt["X"], b)), "Y": matmul(b, pt["Y"])})
    bld.add_so_factor("h", m, lambda c: lambda pt: {
        "X": [[0] * k for _ in range(m)], "Y": neg(matmul(pt["Y"], c))})

    def det_xy(x):
        pt = _unpack(blocks, x)
        return generic_det(matmul(pt["X"], pt["Y"]))

    def sample(stream: Stream):
        g1, d1 = _sample_gl(stream, m)
        g2, _ = _sample_gl(stream, k)
        h = _sample_so(stream, m)
        i2 = _inv(g2)
        mat = _operator(blocks, lambda pt: {
            "X": _mm(g1, pt["X"], i2), "Y": _mm(g2, pt["Y"], transpose(h))})
        return mat, Fraction(d1)

    return ModelSpec(
        name=bld.name, params={"m": m, "k": k}, instance=bld.instance(),
        invariants=(ModelInvariant(Invariant("det(XY)", 2 * m, det_xy),
                                   (GroupCheck("factors", sample),), True),),
        expected={"regular": True, "isotropy_dim": (k - m) ** 2 + m * (m - 1) // 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True},
        blocks=tuple(blocks))


@pytest.mark.parametrize("m,k", [(4, 5), (4, 6)])
def test_d1_row_model_is_q_irreducible(m, k):
    # An independent check of the D1 row: at (4, 5) and (4, 6) the model's
    # isotropy dimensions, 7 and 10, are the oracle's for D11[4,9] and
    # D12[4,10].  The model stays out of MODELS, which holds the shipped eight.
    ok, lines = verify_model(_gl_gl_so(m, k))
    assert ok, [line for line in lines if not line.passed]
    assert [line.name for line in lines] == ["regular", "isotropy_dim",
                                             "n_fundamental_invariants", "q_irreducible",
                                             "invariant det(XY)"]
