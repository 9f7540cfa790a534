"""Exact prehomogeneity analysis.

An :class:`PVInstance` packages a basis of the acting Lie algebra *as
operators on the module* together with everything needed for exact verdicts:
an invariant symmetric form on the algebra (reductivity of isotropy
subalgebras = nondegenerate restriction), the character functionals of the
group (independent relative invariants = characters killed by the generic
isotropy), and the decomposition of the module into its irreducible
components (the only subspaces the subspace searches ever consult).  One
:class:`SubsetLattice` per instance backs those searches.

A parabolic instance (:func:`build_parabolic_pv`) is written from the
root data alone, with no bracket or form evaluated that is known to be
zero: the Cartan acts on level 1 by the diagonal pairings, a level-0 root
vector e_g moves e_r to N(g, r) e_s for each pair of level-1 roots with
s - r = g, and the Killing form has the Cartan block plus one entry
K(e_g, e_-g) per level-0 root g.

A proper component sum of a parabolic instance is regular exactly when
every piece of its :func:`~pvlab.diagram.subdiagram` is: the Levi's image
in GL(V_Gamma) is the product of the pieces' Levi images (the Cartans have
the same image, because every piece's Cartan matrix is nondegenerate), the
generic isotropy is reductive exactly when it is reductive modulo the
reductive kernel of the action, and a product PV is regular exactly when
each factor is.  The lattice therefore decides such sums from one
process-wide table of piece verdicts.  It finds the pieces without
splitting the diagram again for every sum: a piece is the union of
linked closures, the closure of a circled node a being the support of its
level-1 component V_a, read from :func:`pvlab.grading.components`.  That
support is a plus the theta-components next to it: a level-1 root's
support is connected and holds no other circled node, and the simple roots
of a connected node set sum to a root.

All verdicts use exact rational arithmetic.  A large-prime modular rank is
used as a fast certificate during candidate selection; it can only
under-report, and every reported rank comes from an exact kernel.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul, sub
from typing import Callable, NamedTuple, Sequence

from . import grading
from ._linalg import det, kernel_basis, matvec, modp_rank, rank
from ._rand import Stream
from .chevalley import chevalley_basis
from .diagram import WeightedDiagram, render_compact
from .rootsys import build_root_system, induced_piece

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
    """A linear Lie algebra action with component/form/character bookkeeping.

    ``diagram`` is the weighted diagram of a :func:`build_parabolic_pv`
    instance, whose component i sits at circled node ``diagram.circled[i]``;
    restrictions, subalgebra instances and the matrix models have none.
    """

    name: str
    operators: tuple[tuple[tuple, ...], ...]
    dim_v: int
    form: tuple[tuple, ...]
    characters: tuple[tuple, ...]
    components: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    diagram: WeightedDiagram | None = None

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


def build_parabolic_pv(d: WeightedDiagram) -> PVInstance:
    """The level-0 subalgebra of a weighted diagram acting on level 1.

    Operator basis: the full Cartan followed by the level-0 root vectors.
    Form: the ambient Killing form restricted to that basis.  Characters:
    one per circled node (the Cartan coefficients that survive the derived
    subalgebra).

    The level-1 basis is that of :func:`pvlab.grading.components`, one
    component after another, and only the nonzero entries are written.
    H_i acts on the level-1 root vector e_r by the pairing r(H_i).
    The root vector e_g of a level-0 root g sends e_r to N(g, r) e_s for
    each pair of level-1 roots (r, s) with s - r = g; such a pair lies in
    one component.  The Killing form pairs the Cartan with itself and each
    e_g with e_-g only.
    """
    alg = chevalley_basis(d.type)
    rs = alg.rs
    n = d.type.rank
    circled_axes = [a - 1 for a in d.circled]
    level0 = [r for r in rs.roots if not any(map(r.__getitem__, circled_axes))]
    components = grading.components(d)
    level1 = [r for c in components for r in c.roots]
    if not level1:
        raise EmptyLevelOne(render_compact(d))
    dim_v = len(level1)
    cartan_ops = [[[0] * dim_v for _ in range(dim_v)] for _ in range(n)]
    columns = list(zip(*rs.cartan))
    for k, r in enumerate(level1):
        for i, column in enumerate(columns):
            cartan_ops[i][k][k] = sum(map(mul, r, column))  # the pairing r(H_i)
    position = {g: p for p, g in enumerate(level0)}
    root_ops = [[[0] * dim_v for _ in range(dim_v)] for _ in level0]
    ranges, offset = [], 0
    for c in components:
        for k, r in enumerate(c.roots, offset):
            for l, s in enumerate(c.roots, offset):
                p = position.get(tuple(map(sub, s, r)))
                if p is not None:
                    root_ops[p][l][k] = alg.nconst[(level0[p], r)]
        ranges.append(range(offset, offset + c.dim))
        offset += c.dim
    dim_g = n + len(level0)
    form = [[0] * dim_g for _ in range(dim_g)]
    for i in range(n):
        for j in range(n):
            form[i][j] = alg.killing(i, j)
    for p, g in enumerate(level0):
        q = position[tuple(-x for x in g)]
        if p < q:
            form[n + p][n + q] = form[n + q][n + p] = alg.killing(alg.e_index(g),
                                                                  alg.e_index(level0[q]))
    characters = [[1 if j == a - 1 else 0 for j in range(dim_g)] for a in d.circled]
    pv = make_instance(render_compact(d), cartan_ops + root_ops, dim_v, form, characters,
                       ranges, [f"V[{c.alpha}]" for c in components])
    return replace(pv, diagram=d)


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
    best_x, best_cols, best_r = None, None, -1
    for _ in range(CANDIDATES):
        x = stream.vector(pv.dim_v)
        cols = _action_columns(pv, x)
        r = modp_rank(cols)
        if r > best_r:
            best_x, best_cols, best_r = x, cols, r
        if best_r == cap:
            break
    iso = kernel_basis(best_cols)
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


@dataclass(frozen=True)
class QIrreducibilityReport:
    q_irreducible: bool
    witness: tuple[int, ...] | None
    regularity: RegularityReport


# Regularity verdict of each subdiagram piece, keyed by (compact form, seed).
_PIECE_VERDICTS: dict[tuple[str, int], bool] = {}


class SubsetLattice:
    """Regularity of every sum of irreducible components of one instance.

    One :class:`RegularityReport` per subset of component indices (``full``
    is all of them), computed on first use at the lattice's seed by direct
    restriction.  Every Q-verdict reads the yes/no answer of
    :meth:`is_regular_sum`.  For a proper subset of a parabolic instance
    that answer is the conjunction of the verdicts of the subset's
    :func:`~pvlab.diagram.subdiagram` pieces, because the restriction is
    the product of the pieces' PVs up to a reductive kernel (see the module
    docstring).  Each piece verdict is computed once per process and seed,
    by restricting the instance at hand to that piece's components, so
    diagrams that share a piece share its verdict.

    The pieces come from the diagram, split once per lattice into the
    closure of each circled node: the support of the node's level-1
    component, read from :func:`pvlab.grading.components`, which is the
    node plus the theta-components next to it.  A subset's circled nodes
    fall into groups of linked closures, and each group's piece is
    classified once per lattice (see :meth:`pieces`).

    >>> from pvlab.diagram import parse_diagram
    >>> lattice = SubsetLattice(build_parabolic_pv(parse_diagram("A3[1,3]")))
    >>> lattice.q_irreducibility().q_irreducible
    True
    >>> lattice.regular((0,)).regular
    False
    >>> lattice.pieces((0,))
    (((1, 2), WeightedDiagram(type=SimpleType(family='A', rank=2), circled=(1,))),)
    """

    def __init__(self, pv: PVInstance, seed: int = 0) -> None:
        self.pv = pv
        self.seed = seed
        self.full = tuple(range(len(pv.components)))
        self._regular: dict[tuple[int, ...], RegularityReport] = {}
        self._verdict: dict[tuple[int, ...], bool] = {}
        self._cqr: dict[tuple[int, ...], bool] = {}
        self._rs = None  # the diagram's root system, once it is split
        self._closures: list[set[int]] = []
        self._links: list[set[int]] = []
        self._pieces: dict[tuple[int, ...], tuple[tuple[int, ...], WeightedDiagram]] = {}

    def regular(self, subset: tuple[int, ...]) -> RegularityReport:
        """The exact report of the restriction to ``subset``."""
        if subset not in self._regular:
            self._regular[subset] = is_regular(restrict(self.pv, subset), self.seed)
        return self._regular[subset]

    def is_regular_sum(self, subset: tuple[int, ...]) -> bool:
        """Whether the restriction to ``subset`` is regular, piece by piece
        for a proper subset of a parabolic instance."""
        if self.pv.diagram is None or subset == self.full:
            return self.regular(subset).regular
        if subset not in self._verdict:
            self._verdict[subset] = all(self._piece_verdict(nodes, piece)
                                        for nodes, piece in self.pieces(subset))
        return self._verdict[subset]

    def pieces(self, subset: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], WeightedDiagram], ...]:
        """``subdiagram(diagram, gamma).pieces`` for the circled nodes gamma
        of a proper component subset of a parabolic instance.

        Two circled nodes of gamma lie in one piece exactly when a chain of
        linked closures joins them: closures are linked when they share a
        theta-component or their nodes are adjacent.
        """
        d = self.pv.diagram
        if self._rs is None:
            self._rs = rs = build_root_system(d.type)
            self._closures = [{i + 1 for r in c.roots for i, m in enumerate(r) if m}
                              for c in grading.components(d)]
            self._links = [{j for j, b in enumerate(d.circled)
                            if j != i and any(rs.adjacent(b, c) for c in closure)}
                           for i, closure in enumerate(self._closures)]
        inside, seen, out = set(subset), set(), []
        for i in subset:
            if i in seen:
                continue
            group, todo = {i}, [i]
            while todo:
                for j in (self._links[todo.pop()] & inside) - group:
                    group.add(j)
                    todo.append(j)
            seen |= group
            out.append(self._piece(tuple(sorted(group))))
        return tuple(sorted(out, key=lambda piece: piece[0]))

    def _piece(self, group: tuple[int, ...]) -> tuple[tuple[int, ...], WeightedDiagram]:
        if group not in self._pieces:
            d = self.pv.diagram
            p = induced_piece(self._rs, set().union(*(self._closures[i] for i in group)))
            marks = tuple(p.relabel[d.circled[i]] for i in group)
            self._pieces[group] = (p.nodes, WeightedDiagram(p.type, marks))
        return self._pieces[group]

    def _piece_verdict(self, nodes: tuple[int, ...], piece: WeightedDiagram) -> bool:
        key = (render_compact(piece), self.seed)
        if key not in _PIECE_VERDICTS:
            own = tuple(i for i, a in enumerate(self.pv.diagram.circled) if a in nodes)
            _PIECE_VERDICTS[key] = self.regular(own).regular
        return _PIECE_VERDICTS[key]

    def regular_proper_subset(self, subset: tuple[int, ...]) -> tuple[int, ...] | None:
        """First (by size, then lexicographic) proper nonempty regular subset."""
        for size in range(1, len(subset)):
            for sub in itertools.combinations(subset, size):
                if self.is_regular_sum(sub):
                    return sub
        return None

    def q_irreducible(self, subset: tuple[int, ...]) -> bool:
        return self.is_regular_sum(subset) and self.regular_proper_subset(subset) is None

    def completely_q_reducible(self, subset: tuple[int, ...]) -> bool:
        """True iff the subset splits into parts with Q-irreducible restrictions."""
        if not subset:
            return True
        if subset not in self._cqr:
            first, rest = subset[0], subset[1:]
            blocks = ((first,) + extra for k in range(len(rest) + 1)
                      for extra in itertools.combinations(rest, k))
            self._cqr[subset] = any(
                self.q_irreducible(block)
                and self.completely_q_reducible(tuple(i for i in subset if i not in block))
                for block in blocks)
        return self._cqr[subset]

    def q_irreducibility(self) -> QIrreducibilityReport:
        """Regular, with no proper component sum whose restriction is regular.

        When a regular proper restriction exists, the witness names its
        component indices; when the instance is not even regular, the
        witness is None and the regularity report tells why.
        """
        report = self.regular(self.full)
        witness = self.regular_proper_subset(self.full) if report.regular else None
        return QIrreducibilityReport(report.regular and witness is None, witness, report)


def q_irreducible(pv: PVInstance, seed: int = 0) -> QIrreducibilityReport:
    """:meth:`SubsetLattice.q_irreducibility` of a fresh lattice."""
    return SubsetLattice(pv, seed).q_irreducibility()


def completely_q_reducible(pv: PVInstance, seed: int = 0) -> bool:
    lattice = SubsetLattice(pv, seed)
    return lattice.completely_q_reducible(lattice.full)


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
    lattice = SubsetLattice(pv, seed)
    if not lattice.regular(lattice.full).regular:
        raise NotRegular(pv.name)
    stages: list[FiltrationStage] = []
    while True:
        cur = lattice.pv
        dims = {subset: sum(len(cur.components[i]) for i in subset)
                for size in range(1, len(lattice.full) + 1)
                for subset in itertools.combinations(lattice.full, size)
                if lattice.is_regular_sum(subset) and lattice.completely_q_reducible(subset)}
        if not dims:
            raise PartialFiltration(
                f"no regular completely-Q-reducible sum among {cur.labels}", tuple(stages))
        subset = min(dims, key=lambda s: (-dims[s], s))
        report = lattice.regular(subset)
        stages.append(FiltrationStage(
            labels=tuple(cur.labels[i] for i in subset),
            dim=dims[subset],
            isotropy_dim=report.isotropy_dim,
            reductive=report.reductive,
            determinant=report.form_determinant,
        ))
        rest = tuple(i for i in lattice.full if i not in subset)
        if not rest:
            break
        rest_pv = restrict(subalgebra_instance(cur, report.isotropy_basis), rest)
        lattice = SubsetLattice(rest_pv, seed)
    return FiltrationReport(tuple(stages), stages[-1].isotropy_dim, stages[-1].reductive)


# ---------------------------------------------------------------------------
# invariant verification


@dataclass(frozen=True)
class Invariant:
    """A polynomial on the module, given as a black-box exact evaluator.

    ``evaluate`` gets a list of ``int`` coordinates at the sample points of
    :func:`verify_invariant` and :func:`hessian_product_identity_check`, and
    of ``Fraction`` coordinates at the points moved by a group check.  It
    must use exact arithmetic (``/`` on two ints makes a float).
    """

    name: str
    degree: int
    evaluate: Callable[[Sequence], object]


@dataclass(frozen=True)
class GroupCheck:
    """Sampler of group elements with their predicted multipliers.

    ``sample`` draws an element g and returns the map x -> g x on packed
    coordinates, with the multiplier that f(g x) / f(x) should equal.
    """

    name: str
    sample: Callable[[Stream], tuple[Callable[[Sequence], list], Fraction]]


@dataclass(frozen=True)
class InvariantReport:
    name: str
    constants: tuple
    points_checked: int
    hessian_nonzero: bool | None
    dlog_rank: int | None
    group_elements_checked: int


def _derivative_weights(degree: int) -> tuple[list[int], list[int], int]:
    """Integer first/second derivative-at-0 weights over the nodes 0..degree.

    Returns ``(w1, w2, scale)``, where ``scale`` is the least common multiple
    of the Lagrange denominators.  Any univariate polynomial p of degree
    <= ``degree`` satisfies, exactly, scale * p'(0) = sum_j w1[j] p(j) and
    scale**2 * p''(0) = sum_j w2[j] p(j).

    Examples
    ========
    >>> _derivative_weights(2)
    ([-3, 4, -1], [4, -8, 4], 2)
    """
    nodes = list(range(degree + 1))
    polys, denoms = [], []
    for j in nodes:
        poly = [1]  # ascending coefficients of prod_{k != j} (t - k)
        denom = 1
        for k in nodes:
            if k == j:
                continue
            denom *= j - k
            poly = [0] + poly
            for a in range(len(poly) - 1):
                poly[a] -= k * poly[a + 1]
        polys.append(poly + [0, 0])  # degree < 2 reads zero coefficients
        denoms.append(denom)
    scale = lcm(*denoms)
    w1 = [poly[1] * (scale // denom) for poly, denom in zip(polys, denoms)]
    w2 = [2 * poly[2] * scale * (scale // denom) for poly, denom in zip(polys, denoms)]
    return w1, w2, scale


def _directional_derivative(f: Invariant, x: Sequence, fx, u: Sequence, w: Sequence) -> object:
    """sum_j w[j] f(x + j u), given fx = f(x): with the weights of
    :func:`_derivative_weights`, scale (resp. scale**2) times the first
    (second) derivative of f along u."""
    acc = w[0] * fx
    for j in range(1, len(w)):
        if w[j]:
            acc += w[j] * f.evaluate([xc + j * uc for xc, uc in zip(x, u)])
    return acc


def _unit(n: int, *axes: int) -> list[int]:
    return [int(a in axes) for a in range(n)]


def _gradient(f: Invariant, x: Sequence, fx, w1: Sequence) -> list:
    """scale times the gradient of f at x."""
    return [_directional_derivative(f, x, fx, _unit(len(x), i), w1) for i in range(len(x))]


def _hessian(f: Invariant, x: Sequence, fx, w2: Sequence) -> list[list]:
    """2 * scale**2 times the Hessian of f at x, by polarization.

    With D(u) the second derivative along u, D(e_i + e_l) - D(e_i) - D(e_l)
    is twice the (i, l) entry, so the diagonal is doubled to match and no
    entry is ever divided.
    """
    n = len(x)
    diag = [_directional_derivative(f, x, fx, _unit(n, i), w2) for i in range(n)]
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = 2 * diag[i]
        for l in range(i + 1, n):
            h[i][l] = h[l][i] = (_directional_derivative(f, x, fx, _unit(n, i, l), w2)
                                 - diag[i] - diag[l])
    return h


INVARIANT_POINTS = 20


def verify_invariant(pv: PVInstance, f: Invariant, seed: int = 0, *,
                     expect_nondegenerate: bool = True,
                     group_checks: Sequence[GroupCheck] = ()) -> InvariantReport:
    """Certify that f transforms by a character under the instance's algebra.

    Checks, in order: (a) for every operator M the derivative of f along Mx
    is a fixed multiple of f across all sample points; (b) if nondegeneracy
    is expected, the Hessian determinant is nonzero at some sample; (c) the
    graded-logarithm differential f*H - grad*grad^t has full rank there;
    (d) any supplied group samplers satisfy f(g x) = multiplier * f(x).

    Everything is exact.  Sample points are integer vectors and derivatives
    carry the integer scaling of :func:`_derivative_weights`, so with an
    integer evaluator no rational is formed until the reported constants.
    Proportionality is tested by cross-multiplying, and (b) and (c) use
    2 * scale**2 times H and f*H - grad*grad^t, which have the same
    determinant sign and rank.
    """
    stream = Stream(seed, context=f"invariant:{pv.name}:{f.name}")
    xs = [stream.vector(pv.dim_v) for _ in range(INVARIANT_POINTS)]
    vals = [f.evaluate(x) for x in xs]
    base = next((i for i, v in enumerate(vals) if v != 0), None)
    if base is None:
        raise DegenerateInvariant(f"{f.name} vanishes at all {INVARIANT_POINTS} sample points")
    w1, w2, scale = _derivative_weights(f.degree)
    constants = []
    for mi, op in enumerate(pv.operators):
        g0 = v0 = None
        for x, v in zip(xs, vals):
            g = _directional_derivative(f, x, v, matvec(op, x), w1)
            if v == 0:
                ok = g == 0  # f = 0 forces the derivative to 0
            elif v0 is None:
                g0, v0, ok = g, v, True
            else:
                ok = g * v0 == g0 * v
            if not ok:
                raise NotRelativeInvariant(
                    f"{f.name}: derivative along operator {mi} is not proportional to f",
                    direction=mi)
        constants.append(Fraction(g0, scale * v0))
    hessian_nonzero = None
    dlog_rank = None
    if expect_nondegenerate:
        tried = 0
        for i in range(base, len(xs)):
            if vals[i] == 0:
                continue
            tried += 1
            h = _hessian(f, xs[i], vals[i], w2)
            if det(h) != 0:
                hessian_nonzero = True
                grad = _gradient(f, xs[i], vals[i], w1)
                dlog = [[vals[i] * h[a][b] - 2 * grad[a] * grad[b] for b in range(pv.dim_v)]
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
            gx = g(x)
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

    Both sides are polynomials; they are compared at seeded integer sample
    points, resampling any point where f vanishes.  The check uses
    h = 2 * scale**2 * H and g = scale * grad from the integer derivative
    weights, so f*h - 2*g*g^t is 2 * scale**2 * (f*H - grad*grad^t) and both
    sides carry the same factor (2 * scale**2)**dim.  Nothing is divided:
    with an integer evaluator both sides are integer-valued.
    """
    stream = Stream(seed, context=f"hessid:{f.name}")
    w1, w2, _ = _derivative_weights(f.degree)
    done = 0
    attempts = 0
    while done < points:
        attempts += 1
        if attempts > 50 * points:
            raise DegenerateInvariant(f"{f.name}: could not find {points} nonvanishing points")
        x = stream.vector(dim)
        fx = f.evaluate(x)
        if fx == 0:
            continue
        h = _hessian(f, x, fx, w2)
        grad = _gradient(f, x, fx, w1)
        lhs = fx ** dim * det(h)
        rhs = (1 - f.degree) * det([[fx * h[a][b] - 2 * grad[a] * grad[b] for b in range(dim)]
                                    for a in range(dim)])
        if lhs != rhs:
            raise IdentityViolation(f"{f.name} at {x}: {lhs} != {rhs}")
        done += 1
    return HessianIdentityReport(f.name, f.degree, dim, done)
