"""Exact prehomogeneity analysis.

An :class:`PVInstance` packages a basis of the acting Lie algebra *as
operators on the module* together with everything needed for exact verdicts:
an invariant symmetric form on the algebra (reductivity of isotropy
subalgebras = nondegenerate restriction), the character functionals of the
group (independent relative invariants = characters killed by the generic
isotropy), and the decomposition of the module into its irreducible
components (the only subspaces the subspace searches ever consult).

All verdicts use exact rational arithmetic.  A large-prime modular rank is
used as a fast certificate during candidate selection; it can only
under-report, and every reported rank comes from an exact kernel.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from ._linalg import det, kernel_basis, matvec, modp_rank, rank
from ._rand import Stream
from .chevalley import ChevalleyBasis, chevalley_basis
from .diagram import WeightedDiagram, render_compact
from .grading import components as level_one_components
from .grading import degree

Matrix = Sequence[Sequence]


class PVError(Exception):
    pass


class EmptyLevelOne(PVError):
    pass


class NonGenericPoint(PVError):
    pass


class EmptySubset(PVError):
    pass


class NotRegular(PVError):
    pass


class PartialFiltration(PVError):
    def __init__(self, message: str, stages: tuple) -> None:
        super().__init__(message)
        self.stages = stages


class NotRelativeInvariant(PVError):
    def __init__(self, message: str, direction: int | None = None) -> None:
        super().__init__(message)
        self.direction = direction


class DegenerateInvariant(PVError):
    pass


class IdentityViolation(PVError):
    pass


# ---------------------------------------------------------------------------
# instances


def _freeze(m: Matrix) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class PVInstance:
    """A linear Lie algebra action with component/form/character bookkeeping."""

    name: str
    operators: tuple[tuple[tuple, ...], ...]
    dim_v: int
    form: tuple[tuple, ...]
    characters: tuple[tuple, ...]
    components: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def dim_g(self) -> int:
        return len(self.operators)


def make_instance(name, operators, dim_v, form, characters, components, labels) -> PVInstance:
    return PVInstance(
        name=name,
        operators=tuple(_freeze(m) for m in operators),
        dim_v=dim_v,
        form=_freeze(form),
        characters=_freeze(characters),
        components=tuple(tuple(c) for c in components),
        labels=tuple(labels),
    )


def build_parabolic_pv(d: WeightedDiagram, alg: ChevalleyBasis | None = None) -> PVInstance:
    """The level-0 subalgebra of a weighted diagram acting on level 1.

    Operator basis: the full Cartan followed by the level-0 root vectors.
    Form: the ambient Killing form restricted to that basis.  Characters:
    one per circled node (the Cartan coefficients that survive the derived
    subalgebra).
    """
    alg = alg or chevalley_basis(d.type)
    rs = alg.rs
    n = d.type.rank
    comps = level_one_components(d)
    level1 = [r for c in comps for r in c.roots]
    if not level1:
        raise EmptyLevelOne(render_compact(d))
    coord = {r: i for i, r in enumerate(level1)}
    dim_v = len(level1)
    level0 = [r for r in rs.roots if degree(d, r) == 0]
    alg_idx = list(range(n)) + [alg.e_index(r) for r in level0]
    operators = []
    for gi in alg_idx:
        m = [[0] * dim_v for _ in range(dim_v)]
        for r in level1:
            for k, c in alg.bracket(gi, alg.e_index(r)):
                m[coord[alg.root_of(k)]][coord[r]] = c
        operators.append(m)
    form = [[alg.killing(a, b) for b in alg_idx] for a in alg_idx]
    characters = [[1 if j == a - 1 else 0 for j in range(len(alg_idx))] for a in d.circled]
    components, labels, offset = [], [], 0
    for c in comps:
        components.append(tuple(range(offset, offset + c.dim)))
        labels.append(f"V[{c.alpha}]")
        offset += c.dim
    return make_instance(render_compact(d), operators, dim_v, form, characters, components, labels)


# ---------------------------------------------------------------------------
# generic points, isotropy, regularity


class GenericPoint(NamedTuple):
    vector: tuple[int, ...]
    seed: int
    orbit_rank: int


class ReductivityCert(NamedTuple):
    reductive: bool
    determinant: Fraction


@dataclass(frozen=True)
class RegularityReport:
    prehomogeneous: bool
    generic_point: GenericPoint
    orbit_rank: int
    isotropy_dim: int
    isotropy_basis: tuple[tuple[int, ...], ...]
    reductive: bool
    regular: bool
    n_fundamental_invariants: int
    form_determinant: Fraction


CANDIDATES = 8


def _action_columns(pv: PVInstance, x: Sequence) -> list[list]:
    """dim_v x dim_g matrix whose column i is (operator_i) x."""
    cols = [matvec(op, x) for op in pv.operators]
    return [[col[r] for col in cols] for r in range(pv.dim_v)]


def _generic_search(pv: PVInstance, seed: int) -> tuple[GenericPoint, list[list[int]]]:
    stream = Stream(seed, context="generic:" + pv.name)
    cap = min(pv.dim_v, pv.dim_g)
    best_x, best_r = None, -1
    for _ in range(CANDIDATES):
        x = stream.vector(pv.dim_v)
        r = modp_rank(_action_columns(pv, x))
        if r > best_r:
            best_x, best_r = x, r
        if best_r == cap:
            break
    iso = kernel_basis(_action_columns(pv, best_x))
    return GenericPoint(tuple(best_x), seed, pv.dim_g - len(iso)), iso


def generic_point(pv: PVInstance, seed: int = 0) -> GenericPoint:
    """Best of a few seeded small-integer candidates, with its exact orbit rank."""
    return _generic_search(pv, seed)[0]


def isotropy_algebra(pv: PVInstance, x: Sequence) -> list[list[int]]:
    """Exact kernel basis of a -> (sum a_i op_i) x, in algebra coordinates."""
    return kernel_basis(_action_columns(pv, x))


def _gram(form: Matrix, vectors: Sequence[Sequence]) -> list[list]:
    """The form on the span of the vectors: S F S^t for the rows S of ``vectors``."""
    sparse_form = [[(b, fb) for b, fb in enumerate(row) if fb] for row in form]
    images = [[sum(fb * s[b] for b, fb in row) for row in sparse_form] for s in vectors]
    supports = [[(a, ta) for a, ta in enumerate(t) if ta] for t in vectors]
    return [[sum(ta * image[a] for a, ta in support) for image in images] for support in supports]


def is_reductive(pv: PVInstance, subalgebra: Sequence[Sequence]) -> ReductivityCert:
    """Nondegeneracy verdict of the instance form restricted to a subalgebra.

    Sound as a reductivity test because every instance form is the trace
    form of a faithful module of the ambient algebra.
    """
    if not subalgebra:
        return ReductivityCert(True, Fraction(1))
    d = det(_gram(pv.form, subalgebra))
    return ReductivityCert(d != 0, d)


def _invariant_count(pv: PVInstance, subalgebra: Sequence[Sequence]) -> int:
    total = rank([list(row) for row in pv.characters])
    if not subalgebra or not pv.characters:
        return total
    image = [[sum(row[b] * s[b] for b in range(pv.dim_g)) for s in subalgebra]
             for row in pv.characters]
    return total - rank(image)


def is_regular(pv: PVInstance, seed: int = 0) -> RegularityReport:
    """Full verdict at a seeded generic point, everything exact."""
    gp, iso = _generic_search(pv, seed)
    cert = is_reductive(pv, iso)
    preh = gp.orbit_rank == pv.dim_v
    return RegularityReport(
        prehomogeneous=preh,
        generic_point=gp,
        orbit_rank=gp.orbit_rank,
        isotropy_dim=pv.dim_g - gp.orbit_rank,
        isotropy_basis=_freeze(iso),
        reductive=cert.reductive,
        regular=preh and cert.reductive,
        n_fundamental_invariants=_invariant_count(pv, iso),
        form_determinant=cert.determinant,
    )


def count_fundamental_invariants(pv: PVInstance, x: Sequence, certified_rank: int | None = None) -> int:
    """Characters of the group killed by the isotropy at a generic point x."""
    iso = isotropy_algebra(pv, x)
    r = pv.dim_g - len(iso)
    if certified_rank is None:
        certified_rank = generic_point(pv).orbit_rank
    if r < certified_rank:
        raise NonGenericPoint(f"orbit rank {r} at x, certified maximum {certified_rank}")
    return _invariant_count(pv, iso)


# ---------------------------------------------------------------------------
# subspace lattice: restriction, Q-irreducibility, filtration


def restrict(pv: PVInstance, indices) -> PVInstance:
    """Same algebra acting on the sum of the selected components."""
    idxs = tuple(sorted(set(indices)))
    if not idxs:
        raise EmptySubset(pv.name)
    for i in idxs:
        if not 0 <= i < len(pv.components):
            raise EmptySubset(f"component index {i} out of range in {pv.name}")
    if idxs == tuple(range(len(pv.components))):
        return pv
    coords = [c for i in idxs for c in pv.components[i]]
    operators = [[[op[a][b] for b in coords] for a in coords] for op in pv.operators]
    components, offset = [], 0
    for i in idxs:
        size = len(pv.components[i])
        components.append(tuple(range(offset, offset + size)))
        offset += size
    labels = [pv.labels[i] for i in idxs]
    name = pv.name + "/" + "+".join(labels)
    return make_instance(name, operators, len(coords), pv.form, pv.characters, components, labels)


def subalgebra_instance(pv: PVInstance, vectors: Sequence[Sequence], name: str | None = None) -> PVInstance:
    """The same module under the subalgebra spanned by the given vectors."""
    operators = []
    for s in vectors:
        m = [[0] * pv.dim_v for _ in range(pv.dim_v)]
        for b, sb in enumerate(s):
            if not sb:
                continue
            op = pv.operators[b]
            for a in range(pv.dim_v):
                row = op[a]
                for c in range(pv.dim_v):
                    if row[c]:
                        m[a][c] += sb * row[c]
        operators.append(m)
    form = _gram(pv.form, vectors)
    characters = [[sum(row[b] * s[b] for b in range(pv.dim_g)) for s in vectors]
                  for row in pv.characters]
    return make_instance(name or pv.name + ".isotropy", operators, pv.dim_v,
                         form, characters, pv.components, pv.labels)


class _SubsetOracle:
    """Memoized regular/Q-irreducible/completely-Q-reducible verdicts per subset."""

    def __init__(self, pv: PVInstance, seed: int) -> None:
        self.pv = pv
        self.seed = seed
        self._regular: dict[tuple[int, ...], RegularityReport] = {}
        self._cqr: dict[tuple[int, ...], bool] = {}

    def regular(self, subset: tuple[int, ...]) -> RegularityReport:
        if subset not in self._regular:
            self._regular[subset] = is_regular(restrict(self.pv, subset), self.seed)
        return self._regular[subset]

    def regular_proper_subset(self, subset: tuple[int, ...]) -> tuple[int, ...] | None:
        """First (by size, then lexicographic) proper nonempty regular subset."""
        for size in range(1, len(subset)):
            for sub in itertools.combinations(subset, size):
                if self.regular(sub).regular:
                    return sub
        return None

    def q_irreducible(self, subset: tuple[int, ...]) -> bool:
        return self.regular(subset).regular and self.regular_proper_subset(subset) is None

    def completely_q_reducible(self, subset: tuple[int, ...]) -> bool:
        """True iff the subset splits into parts with Q-irreducible restrictions."""
        if not subset:
            return True
        if subset not in self._cqr:
            self._cqr[subset] = False  # guard against re-entry
            found = False
            first = subset[0]
            rest = subset[1:]
            for k in range(len(rest) + 1):
                for extra in itertools.combinations(rest, k):
                    block = (first,) + extra
                    remainder = tuple(i for i in subset if i not in block)
                    if self.q_irreducible(block) and self.completely_q_reducible(remainder):
                        found = True
                        break
                if found:
                    break
            self._cqr[subset] = found
        return self._cqr[subset]


@dataclass(frozen=True)
class QIrreducibilityReport:
    q_irreducible: bool
    witness: tuple[int, ...] | None
    regularity: RegularityReport


def q_irreducible(pv: PVInstance, seed: int = 0) -> QIrreducibilityReport:
    """Regular, with no proper component sum whose restriction is regular.

    When a regular proper restriction exists, the witness names its
    component indices; when the instance is not even regular, the witness
    is None and the regularity report tells why.
    """
    oracle = _SubsetOracle(pv, seed)
    full = tuple(range(len(pv.components)))
    report = oracle.regular(full)
    if not report.regular:
        return QIrreducibilityReport(False, None, report)
    witness = oracle.regular_proper_subset(full)
    return QIrreducibilityReport(witness is None, witness, report)


def completely_q_reducible(pv: PVInstance, seed: int = 0) -> bool:
    return _SubsetOracle(pv, seed).completely_q_reducible(tuple(range(len(pv.components))))


@dataclass(frozen=True)
class FiltrationStage:
    labels: tuple[str, ...]
    dim: int
    isotropy_dim: int
    reductive: bool
    determinant: Fraction


@dataclass(frozen=True)
class FiltrationReport:
    stages: tuple[FiltrationStage, ...]
    final_isotropy_dim: int
    final_reductive: bool


def decompose_filtration(pv: PVInstance, seed: int = 0) -> FiltrationReport:
    """Peel off maximal regular completely-Q-reducible component sums.

    Each stage fixes a generic point of the chosen sum and hands its
    isotropy subalgebra to the next stage, acting on what remains.  Stages
    choose the largest-dimensional eligible sum (lexicographically first
    component set on ties).
    """
    if not is_regular(pv, seed).regular:
        raise NotRegular(pv.name)
    stages: list[FiltrationStage] = []
    cur = pv
    while cur.components:
        oracle = _SubsetOracle(cur, seed)
        best: tuple[int, tuple[int, ...]] | None = None
        m = len(cur.components)
        for size in range(1, m + 1):
            for subset in itertools.combinations(range(m), size):
                if not (oracle.regular(subset).regular and oracle.completely_q_reducible(subset)):
                    continue
                dim = sum(len(cur.components[i]) for i in subset)
                if best is None or dim > best[0] or (dim == best[0] and subset < best[1]):
                    best = (dim, subset)
        if best is None:
            raise PartialFiltration(
                f"no regular completely-Q-reducible sum among {cur.labels}", tuple(stages))
        dim, subset = best
        report = oracle.regular(subset)
        stages.append(FiltrationStage(
            labels=tuple(cur.labels[i] for i in subset),
            dim=dim,
            isotropy_dim=report.isotropy_dim,
            reductive=report.reductive,
            determinant=report.form_determinant,
        ))
        rest = tuple(i for i in range(m) if i not in subset)
        if not rest:
            break
        cur = restrict(subalgebra_instance(cur, report.isotropy_basis), rest)
    return FiltrationReport(tuple(stages), stages[-1].isotropy_dim, stages[-1].reductive)


# ---------------------------------------------------------------------------
# invariant verification


@dataclass(frozen=True)
class Invariant:
    """A polynomial on the module, given as a black-box exact evaluator."""

    name: str
    degree: int
    evaluate: Callable[[Sequence], object]


@dataclass(frozen=True)
class GroupCheck:
    """Sampler of group elements with their predicted multipliers."""

    name: str
    sample: Callable[[Stream], tuple[list[list[Fraction]], Fraction]]


@dataclass(frozen=True)
class InvariantReport:
    name: str
    constants: tuple
    points_checked: int
    hessian_nonzero: bool | None
    dlog_rank: int | None
    group_elements_checked: int


def _derivative_weights(degree: int) -> tuple[list[Fraction], list[Fraction]]:
    """First/second derivative-at-0 weights over the nodes 0..degree.

    Any univariate polynomial p of degree <= ``degree`` satisfies, exactly,
    p'(0) = sum_j w1[j] p(j) and p''(0) = sum_j w2[j] p(j).
    """
    nodes = list(range(degree + 1))
    w1, w2 = [], []
    for j in nodes:
        poly = [Fraction(1)]  # ascending coefficients of prod_{k != j} (t - k)
        denom = 1
        for k in nodes:
            if k == j:
                continue
            denom *= j - k
            poly = [Fraction(0)] + poly
            for a in range(len(poly) - 1):
                poly[a] -= k * poly[a + 1]
        w1.append(poly[1] / denom if len(poly) > 1 else Fraction(0))
        w2.append(2 * poly[2] / denom if len(poly) > 2 else Fraction(0))
    return w1, w2


def _directional_derivative(f: Invariant, x: Sequence, u: Sequence, w1: Sequence) -> object:
    acc = 0
    for j, w in enumerate(w1):
        if w:
            acc += w * f.evaluate([xc + j * uc for xc, uc in zip(x, u)])
    return acc


def _gradient(f: Invariant, x: Sequence, w1: Sequence) -> list:
    n = len(x)
    grad = []
    for i in range(n):
        acc = 0
        for j, w in enumerate(w1):
            if w:
                y = list(x)
                y[i] += j
                acc += w * f.evaluate(y)
        grad.append(acc)
    return grad


def _hessian(f: Invariant, x: Sequence, w1: Sequence, w2: Sequence) -> list[list]:
    n = len(x)
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        acc = 0
        for j, w in enumerate(w2):
            if w:
                y = list(x)
                y[i] += j
                acc += w * f.evaluate(y)
        h[i][i] = acc
    for i in range(n):
        for l in range(i + 1, n):
            acc = 0
            for a, wa in enumerate(w1):
                if not wa:
                    continue
                for b, wb in enumerate(w1):
                    if not wb:
                        continue
                    y = list(x)
                    y[i] += a
                    y[l] += b
                    acc += wa * wb * f.evaluate(y)
            h[i][l] = h[l][i] = acc
    return h


def verify_invariant(pv: PVInstance, f: Invariant, seed: int = 0, *,
                     expect_nondegenerate: bool = True,
                     group_checks: Sequence[GroupCheck] = (),
                     points: int = 20) -> InvariantReport:
    """Certify that f transforms by a character under the instance's algebra.

    Checks, in order: (a) for every operator M the derivative of f along Mx
    is a fixed multiple of f across all sample points; (b) if nondegeneracy
    is expected, the Hessian determinant is nonzero at some sample; (c) the
    graded-logarithm differential f*H - grad*grad^t has full rank there;
    (d) any supplied group samplers satisfy f(g x) = multiplier * f(x).

    Everything is exact.
    """
    stream = Stream(seed, context=f"invariant:{pv.name}:{f.name}")
    xs = [[Fraction(v) for v in stream.vector(pv.dim_v)] for _ in range(points)]
    vals = [f.evaluate(x) for x in xs]
    base = next((i for i, v in enumerate(vals) if v != 0), None)
    if base is None:
        raise DegenerateInvariant(f"{f.name} vanishes at all {points} sample points")
    w1, w2 = _derivative_weights(f.degree)
    constants = []
    for mi, op in enumerate(pv.operators):
        c = None
        for x, v in zip(xs, vals):
            g = _directional_derivative(f, x, matvec(op, x), w1)
            if v == 0:
                ok = g == 0  # f = 0 forces the derivative to 0
            elif c is None:
                c, ok = g / v, True
            else:
                ok = g == c * v
            if not ok:
                raise NotRelativeInvariant(
                    f"{f.name}: derivative along operator {mi} is not proportional to f",
                    direction=mi)
        constants.append(c)
    hessian_nonzero = None
    dlog_rank = None
    if expect_nondegenerate:
        tried = 0
        for i in range(base, len(xs)):
            if vals[i] == 0:
                continue
            tried += 1
            h = _hessian(f, xs[i], w1, w2)
            if det(h) != 0:
                hessian_nonzero = True
                grad = _gradient(f, xs[i], w1)
                dlog = [[vals[i] * h[a][b] - grad[a] * grad[b] for b in range(pv.dim_v)]
                        for a in range(pv.dim_v)]
                dlog_rank = rank(dlog)
                break
            if tried >= 5:
                break
        if not hessian_nonzero:
            raise DegenerateInvariant(f"{f.name}: Hessian determinant zero at {tried} samples")
        if dlog_rank != pv.dim_v:
            raise DegenerateInvariant(f"{f.name}: graded-log rank {dlog_rank} < {pv.dim_v}")
    checked = 0
    for gc in group_checks:
        gstream = Stream(seed, context=f"group:{pv.name}:{f.name}:{gc.name}")
        for _ in range(3):
            g, multiplier = gc.sample(gstream)
            x = xs[base]
            gx = matvec(g, x)
            if f.evaluate(gx) != multiplier * vals[base]:
                raise NotRelativeInvariant(
                    f"{f.name}: group element from {gc.name} violates the character law")
            checked += 1
    return InvariantReport(
        name=f.name,
        constants=tuple(constants),
        points_checked=len(xs),
        hessian_nonzero=hessian_nonzero,
        dlog_rank=dlog_rank,
        group_elements_checked=checked,
    )


@dataclass(frozen=True)
class HessianIdentityReport:
    name: str
    degree: int
    dim: int
    points_checked: int


def hessian_product_identity_check(f: Invariant, dim: int, seed: int = 0,
                                   points: int = 5) -> HessianIdentityReport:
    """Exact check of  f^dim * det(Hessian f) = (1 - deg f) * det(f*H - grad*grad^t).

    Both sides are polynomials; they are compared as exact rationals at
    seeded sample points, resampling any point where f vanishes.
    """
    stream = Stream(seed, context=f"hessid:{f.name}")
    w1, w2 = _derivative_weights(f.degree)
    done = 0
    attempts = 0
    while done < points:
        attempts += 1
        if attempts > 50 * points:
            raise DegenerateInvariant(f"{f.name}: could not find {points} nonvanishing points")
        x = [Fraction(v) for v in stream.vector(dim)]
        fx = f.evaluate(x)
        if fx == 0:
            continue
        h = _hessian(f, x, w1, w2)
        grad = _gradient(f, x, w1)
        lhs = fx ** dim * det(h)
        rhs = (1 - f.degree) * det([[fx * h[a][b] - grad[a] * grad[b] for b in range(dim)]
                                    for a in range(dim)])
        if lhs != rhs:
            raise IdentityViolation(f"{f.name} at {x}: {lhs} != {rhs}")
        done += 1
    return HessianIdentityReport(f.name, f.degree, dim, done)
