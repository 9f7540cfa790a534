"""Matrix-space models: builders, Pfaffians, and certificate cross-checks."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvlab import models, pvcore
from pvlab._linalg import det, kernel_basis, matmul, transpose
from pvlab._rand import Stream
from pvlab.diagram import parse_diagram
from pvlab.models import (MODELS, ModelSpec, NotSkew, OddSize, _layout, _lie_basis, _lie_move,
                          _operator, _pack, _spec, _unpack, build_model, descending_chains,
                          diag_chain, dual_pair, generic_det, matrix_pair, pfaffian, skew_pair,
                          sym_vector, vector_skew, verify_model)
from pvlab.pvcore import (Invariant, SubsetLattice, build_parabolic_pv, is_regular, q_irreducible,
                          restrict)

from _instances import dense_repr, dense_rows, identity, isotropy_algebra

J2 = [[0, 1], [-1, 0]]
DATA = Path(__file__).parent / "data"


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


# entries that are zero about half the time: the expansions skip a zero
# entry's minor, so zeros must be exercised
SPARSE = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6))


@st.composite
def skew_matrices(draw):
    n = draw(st.sampled_from([0, 2, 4, 6, 8]))
    zero_first_row = draw(st.booleans())
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z[i][j] = 0 if zero_first_row and i == 0 else draw(SPARSE)
            z[j][i] = -z[i][j]
    return z


@settings(max_examples=80, deadline=None)
@given(skew_matrices())
def test_pfaffian_squares_to_determinant(z):
    assert pfaffian(z) ** 2 == det(z)
    if z and not any(z[0]):
        assert pfaffian(z) == 0


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    entries = draw(st.sampled_from([
        SPARSE,
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6,
                                                     max_denominator=5))]))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_generic_det_is_the_determinant(m):
    assert generic_det(m) == det(m)


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
# the evaluators against the textbook formulas


def _det_by_minors(m):
    """Cofactor expansion that copies each minor."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    return sum((-1) ** j * v * _det_by_minors([row[:j] + row[j + 1:] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def _pf_by_minors(z):
    """First-row Pfaffian expansion that copies each minor."""
    if not z:
        return 1
    n = len(z)
    total = 0
    for j in range(1, n):
        if z[0][j]:
            keep = [k for k in range(1, n) if k != j]
            total += (-1) ** (j - 1) * z[0][j] * _pf_by_minors([[z[a][b] for b in keep]
                                                                 for a in keep])
    return total


def _textbook(spec: ModelSpec, name: str):
    """The closed form of one invariant, from the unpacked blocks, matmul and
    transpose, with determinants and Pfaffians by copied minors."""
    kind = spec.name.partition("(")[0]
    p = spec.params

    def ev(x):
        pt = _unpack(list(spec.blocks), x)
        if kind == "dual-pair":
            return sum(v[0] * w[0] for v, w in zip(pt["v"], pt["w"]))
        if kind == "sym-vector":
            return _det_by_minors(pt["S"])
        if kind in ("matrix-pair", "diag-chain"):
            return _det_by_minors(matmul(pt["Y"], pt["X"]))
        if kind == "skew-pair":
            return _pf_by_minors(matmul(matmul(transpose(pt["X"]), pt["Y"]), pt["X"]))
        if kind == "vector-skew":
            n = p["n"]
            z = [pt["Y"][i] + [pt["X"][i][0]] for i in range(n)]
            return _pf_by_minors(z + [[-pt["X"][j][0] for j in range(n)] + [0]])
        if kind == "det-augmented":
            return _det_by_minors([pt["X"][i] + [pt["Y"][i][0]] for i in range(p["n"])])
        assert kind == "descending-chains"
        n, k = p["n"], int(name[2:-1])  # P[k]
        prod = pt[f"V[{n}]"]
        for m in range(n - 1, k - 1, -1):
            prod = matmul(prod, pt[f"V[{m}]"])
        return _det_by_minors(matmul(transpose(prod), prod))
    return ev


EVALUATED = (
    # the eight invariant gates of test_acceptance.py
    "matrix-pair:p=2,q=3,r=2", "skew-pair:p=4,r=5", "skew-pair:p=2,r=5", "vector-skew:n=5",
    "dual-pair:n=2", "dual-pair:n=3", "descending-chains:n=1", "descending-chains:n=2",
    # the other evaluators: sym, square-augmented, torus and three-factor chains
    "sym-vector:n=3", "det-augmented:n=4", "diag-chain:p=2,q=3", "descending-chains:n=3",
)


@pytest.mark.parametrize("spec_string", EVALUATED)
def test_evaluators_match_the_textbook_formulas(spec_string):
    # Integer points as verify_invariant draws them, sparse ones, and
    # Fraction points, at which an exact evaluator stays exact.  Value and
    # type must both agree.
    spec = build_model(spec_string)
    dim = spec.instance.dim_v
    stream = Stream(0, f"evaluators:{spec_string}")
    points = [stream.vector(dim) for _ in range(12)]
    points += [[stream.randint(-2, 2) * stream.randint(0, 1) for _ in range(dim)]
               for _ in range(6)]
    points += [[Fraction(stream.randint(-9, 9), stream.randint(1, 4)) for _ in range(dim)]
               for _ in range(12)]
    assert spec.invariants
    for mi in spec.invariants:
        inv = mi.invariant
        want = _textbook(spec, inv.name)
        for x in points:
            got, ref = inv.evaluate(x), want(x)
            assert (got, type(got)) == (ref, type(ref)), (inv.name, x)
            assert inv.evaluate(tuple(x)) == got, (inv.name, x)
        assert any(inv.evaluate(x) for x in points), inv.name


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
    with pytest.raises(ValueError, match="given twice"):
        build_model("dual-pair:n=2,n=3")


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


# Every builder of MODELS at the sizes the tests above and the invariant gates
# use, widened to each small parameter range: 46 instances.
REDUCTIVITY_GATE = tuple(
    [f"dual-pair:n={n}" for n in (2, 3, 4)] + [f"sym-vector:n={n}" for n in (2, 3, 4)]
    + [f"descending-chains:n={n}" for n in (1, 2, 3)]
    + [f"matrix-pair:p={p},q={q},r={r}" for q in (2, 3, 4) for p in range(1, q)
       for r in range(1, q)]
    + [f"matrix-pair:p={p},q=5,r={p}" for p in range(1, 5)]
    + [f"skew-pair:p={p},r={r}" for r in (3, 5) for p in range(1, r)]
    + ["skew-pair:p=5,r=7", "skew-pair:p=6,r=7"]
    + [f"diag-chain:p={p},q={q}" for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
                                               (2, 5))]
    + ["vector-skew:n=3", "vector-skew:n=5", "det-augmented:n=2", "det-augmented:n=3"])
FILTRATIONS = ("sym-vector:n=3", "descending-chains:n=2", "descending-chains:n=3")


def test_reductivity_matrix_decides_every_model(monkeypatch):
    # Every instance reads regularity from N_x = A_x F^-1 A_x^t at its full
    # report's point (see the pvcore docstring).  On each model above and on
    # each stage instance of the three filtrations, all prehomogeneous:
    # det N != 0 must be the report's reductive verdict, the Jacobi formula
    # det F det N prod c_f^2 / det(A_P)^2 must be its form determinant,
    # exactly, and the principal minor of every proper component sum must
    # give the verdict of the sum's own restricted report and the lattice's.
    stages = []

    class Recording(SubsetLattice):
        def __init__(self, pv, seed=0):
            stages.append(pv)
            super().__init__(pv, seed)

    monkeypatch.setattr(pvcore, "SubsetLattice", Recording)
    for s in FILTRATIONS:
        pvcore.decompose_filtration(build_model(s).instance)
    monkeypatch.undo()
    stages = [pv for pv in stages if ".isotropy" in pv.name]
    assert len(stages) == 4
    sums = regular_sums = 0
    for pv in [build_model(s).instance for s in REDUCTIVITY_GATE] + stages:
        report = is_regular(pv)
        assert report.prehomogeneous, pv.name
        x = report.generic_point
        a = pvcore._action_columns(pv, x)
        n, c, det_f = pvcore._reductivity_matrix(pv, a)
        iso, _, last_pivot = kernel_basis(a)
        scale = math.prod(next(v for v in reversed(s) if v) for s in iso)
        det_n = det(n) / c ** pv.dim_v
        assert (det_n != 0) == report.reductive, pv.name
        assert det_f * det_n * scale ** 2 / last_pivot ** 2 == report.form_determinant, pv.name
        lattice = SubsetLattice(pv)
        for k in range(1, len(pv.components)):
            for subset in itertools.combinations(range(len(pv.components)), k):
                direct = is_regular(restrict(pv, subset)).regular
                minor = pvcore.principal_minor_regular(pv, subset, n)
                assert minor == direct == lattice.is_regular_sum(subset), (pv.name, subset)
                sums += 1
                regular_sums += direct
    assert (sums, regular_sums) == (96, 8)


def test_model_instances_are_frozen():
    # sha256 of repr(astuple(instance)) for the invariant gates, the three
    # filtration models and the specs above, each operator rebuilt dense:
    # operators, generator order, form, characters and components must not
    # drift.
    frozen = json.loads((DATA / "model_instances.json").read_text())
    got = {s: hashlib.sha256(dense_repr(build_model(s).instance).encode()).hexdigest()
           for s in frozen}
    assert got == frozen
    # pvcore._gram computes S F S^t on and above the diagonal only.
    for s in frozen:
        pv = build_model(s).instance
        form = dense_rows(pv, pv.form)
        assert form == tuple(zip(*form)), f"asymmetric form on {s}"


# Every role (left, dual, right, cong, the scalar exponents 1 and -1) and
# every block kind (mat, sym, skew), over all eight models.
OPERATOR_CASES = [
    "dual-pair:n=2", "dual-pair:n=3", "sym-vector:n=2", "sym-vector:n=3",
    "descending-chains:n=1", "descending-chains:n=2", "descending-chains:n=3",
    "matrix-pair:p=1,q=2,r=1", "matrix-pair:p=2,q=3,r=2", "matrix-pair:p=1,q=3,r=2",
    "skew-pair:p=1,r=3", "skew-pair:p=2,r=5", "skew-pair:p=4,r=5",
    "diag-chain:p=1,q=2", "diag-chain:p=2,q=3", "vector-skew:n=3", "vector-skew:n=5",
    "det-augmented:n=2", "det-augmented:n=3",
]


def _with_factor_table(spec_string, monkeypatch):
    """The model with the blocks and factor table its instance was built from."""
    tables = {}
    instance = models._instance

    def recording(name, blocks, factors):
        tables[name] = blocks, factors
        return instance(name, blocks, factors)

    monkeypatch.setattr(models, "_instance", recording)
    spec = build_model(spec_string)
    return (spec, *tables[spec.name])


def test_operator_cases_cover_every_role_and_block_kind(monkeypatch):
    roles, kinds = set(), set()
    for s in OPERATOR_CASES:
        _, blocks, factors = _with_factor_table(s, monkeypatch)
        roles.update(role for *_, moves in factors for role in moves.values())
        kinds.update(b.kind for b in blocks)
    assert {build_model(s).name.partition("(")[0] for s in OPERATOR_CASES} == set(MODELS)
    assert roles == {"left", "dual", "right", "cong", 1, -1}
    assert kinds == {"mat", "sym", "skew"}


@pytest.mark.parametrize("spec_string", OPERATOR_CASES)
def test_operators_match_the_action_on_every_unit_vector(spec_string, monkeypatch):
    # The instance builds each operator block by block, from the unit
    # matrices of the blocks its generator moves.  The reference applies the
    # generator's Lie action to every packed unit vector of the whole point,
    # with a zero block wherever the generator does not act.
    spec, blocks, factors = _with_factor_table(spec_string, monkeypatch)
    dim = spec.instance.dim_v
    gens = [(moves, a) for key, kind, size, moves in factors
            for a, _ in _lie_basis(key, kind, size)]
    assert len(gens) == spec.instance.dim_g
    for (moves, a), op in zip(gens, spec.instance.operators):
        want = []
        for k in range(dim):
            pt = _unpack(blocks, [int(i == k) for i in range(dim)])
            moved = {b.name: _lie_move(moves[b.name], a, pt[b.name]) if b.name in moves
                     else [[0] * b.cols for _ in range(b.rows)] for b in blocks}
            want += [(r, k, v) for r, v in enumerate(_pack(blocks, moved)) if v]
        assert op == tuple(sorted(want))


def _bracket(p, q):
    """The nonzero entries of PQ - QP, for operators given as entries."""
    out = defaultdict(int)
    for (first, second), sign in (((p, q), 1), ((q, p), -1)):
        rows = defaultdict(list)
        for k, c, w in second:
            rows[k].append((c, w))
        for r, k, v in first:
            for c, w in rows[k]:
                out[r, c] += sign * v * w
    return tuple(sorted((r, c, v) for (r, c), v in out.items() if v))


@pytest.mark.parametrize("spec_string", OPERATOR_CASES)
def test_operators_form_a_lie_algebra_representation(spec_string, monkeypatch):
    # The operators represent the product algebra: [M_a, M_b] = M_[a,b] for
    # two generators of one factor, and generators of different factors
    # commute.  A sign slip in a role's Lie meaning, such as a^t X for dual,
    # keeps every operator's unit-vector action consistent with _lie_move but
    # breaks the bracket.
    spec, blocks, factors = _with_factor_table(spec_string, monkeypatch)
    gens = [(f, moves, a) for f, (key, kind, size, moves) in enumerate(factors)
            for a, _ in _lie_basis(key, kind, size)]
    assert len(gens) == spec.instance.dim_g
    for ((f, moves, a), p), ((h, _, b), q) in itertools.combinations(
            zip(gens, spec.instance.operators), 2):
        if f == h:
            ab, ba = matmul(a, b), matmul(b, a)
            want = tuple(_operator(blocks, moves, [[u - v for u, v in zip(r1, r2)]
                                                   for r1, r2 in zip(ab, ba)]))
        else:
            want = ()
        assert _bracket(p, q) == want, (a, b)


def test_verify_model_reports_every_expected_key():
    spec = dual_pair(2)
    ok, lines = verify_model(spec)
    assert ok
    names = {line.name for line in lines}
    assert set(spec.expected) <= names
    assert "invariant Q" in names


@pytest.mark.parametrize("weight,detail", [
    ({"x": 2, "y": -2}, "operator 0 is 1 f, but weight x^2 y^-2 asks for 2 f"),
    ({"x": 1}, "operator 4 is -1 f, but weight x^1 asks for 0 f"),
], ids=["doubled", "missing-y"])
def test_a_wrong_declared_weight_is_named(weight, detail, monkeypatch):
    # Q = v . w has weight x y^-1.  The generators run x's scalar (operator
    # 0), sl_2 (1-3), y's scalar (4), so a doubled weight differs first on
    # operator 0 and a weight without y only on operator 4.
    spec, blocks, factors = _with_factor_table("dual-pair:n=2", monkeypatch)
    q = spec.invariants[0].invariant
    wrong = _spec("dual-pair", spec.params, blocks, factors, [(q, weight, True)], spec.expected)
    ok, lines = verify_model(wrong)
    failing = [line for line in lines if not line.passed]
    assert not ok and [line.name for line in failing] == ["invariant Q"]
    assert failing[0].detail == f"Q: the derivative along {detail}"


def test_a_weight_on_an_unknown_character_is_rejected(monkeypatch):
    # The differential reads only the table's characters, so a weight that
    # names another one would pass with that exponent ignored.
    spec, blocks, factors = _with_factor_table("dual-pair:n=2", monkeypatch)
    q = spec.invariants[0].invariant
    with pytest.raises(ValueError, match=re.escape("dual-pair(n=2): no character named ['z']")):
        _spec("dual-pair", spec.params, blocks, factors, [(q, {"x": 1, "y": -1, "z": 1}, True)],
              spec.expected)


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
    factors = [("g1", "gl", m, {"X": "left"}),
               ("g2", "gl", k, {"X": "right", "Y": "left"}),
               ("h", "so", m, {"Y": "right"})]

    def det_xy(x):
        pt = _unpack(blocks, x)
        return generic_det(matmul(pt["X"], pt["Y"]))

    return _spec("gl-gl-so", {"m": m, "k": k}, blocks, factors,
                 [(Invariant("det(XY)", 2 * m, det_xy), {"g1": 1}, True)],
                 {"regular": True, "isotropy_dim": (k - m) ** 2 + m * (m - 1) // 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True})


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
