"""Exact prehomogeneity analysis.

An :class:`PVInstance` packages a basis of the acting Lie algebra *as
operators on the module*, each stored as its nonzero entries only, together
with everything needed for exact verdicts:
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
s - r = g, and the Killing form has the Cartan block K_h plus one entry
K(e_g, e_-g) per level-0 root g, each read from the Chevalley basis by root.

A proper component sum of a parabolic instance is regular exactly when
every piece of its :func:`~pvlab.diagram.subdiagram` is: the Levi's image
in GL(V_Gamma) is the product of the pieces' Levi images (the Cartans have
the same image, because every piece's Cartan matrix is nondegenerate), the
generic isotropy is reductive exactly when it is reductive modulo the
reductive kernel of the action, and a product PV is regular exactly when
each factor is.  The lattice therefore decides such sums from one
process-wide table of piece verdicts, keyed by the piece's weighted diagram
alone, since the verdict is exact and so the same at every seed.  A full
report of a piece's diagram fills the same entry; whichever comes first stands.

Every proper component sum's verdict (each piece's, for a parabolic
instance), and every form determinant that the cost rule below takes from
a dim V x dim V minor, reads one matrix built from the action matrix and
the form alone, N_x = A_x F^-1 A_x^t (:func:`_reductivity_matrix`).

Let F be the instance form, nondegenerate on g, x in V with a -> a x of
rank dim V, A_x its matrix and h = ker A_x the isotropy.  A vector u is
F-orthogonal to h exactly when the functional F u vanishes on ker A_x,
that is lies in A_x^t V^*, so h^⊥ = F^-1 A_x^t V^*, with A_x^t injective.
The radical of F on h is therefore h ∩ h^⊥ = {F^-1 A_x^t y : N_x y = 0},
isomorphic to ker N_x, so h is reductive (see :func:`is_reductive`), and x
regular, exactly when N_x is invertible.  F^-1 is read block by block
(:func:`_form_inverse`); without a nondegenerate F there is no N_x, and
building it raises.

One N serves every component sum: N_x at the point x the full report
certified.  Every operator preserves every component, so a sum's action
matrix at the projection x_S of x is A_x's rows at the sum's coordinates,
and its N is N_x's principal submatrix there.  An invertible minor makes
those rows independent, so x_S lies in the sum's open orbit and the sum is
regular.  A singular one makes the sum not regular when x lies in the open
orbit of V: the projection to the sum commutes with the group and is onto,
so it carries that orbit to a dense one, which is open.

On a parabolic instance, with K the Killing form, e_r the level-1 root
vectors and kappa_r = K(e_r, e_-r), invariance gives F B_x = A_x^t D_kappa,
where column r of B_x is [x, e_-r] in the operator basis: entry (i, r) of
both sides is K(b_i, [x, e_-r]) = K([b_i, x], e_-r).  So M = A_x B_x, the
map y -> [[x, y], x] from level -1 to level 1, is N_x D_kappa.  When V is
all of level 1 and N_x is invertible, y = 2 M^-1 x is the one y at level
-1 with [[x, y], x] = 2x, and with H = [x, y], (y, H, x) is an sl2-triple:
ad x is nilpotent and H lies in [x, g], so Morozov's lemma gives a triple
(y', H, x), and the level -1 part of y' is such a y.  With H_0 the grading
element scaled to act by 2 on level 1, [H - H_0, x] = 0 and H - H_0 lies
in g_0, so the neutral element H lies in H_0 + h.  It need not be H_0
itself: it is not on E6[1,2], C6[2,5] and D6[2,5,6].  For these triples on
regular graded Lie algebras see Muller, Rubenthaler and Schiffmann, Math.
Ann. 274 (1986).

A full report prints the determinant of the form on its isotropy basis S,
det(S F S^t).  :func:`is_regular` can compute it from the dim V x dim V
matrix N_x instead of the k x k Gram matrix, k the isotropy dimension:

    det(S F S^t) = det F * det N_x * prod_f c_f^2 / det(A_P)^2.

1. Let A = A_x, P its pivot columns, A_P its dim V x dim V block on P,
   S_free the k x k block of S on the other columns, the free ones, and
   B = [S; e_P], with e_P the unit rows at P; det B = +-det(S_free).  Since
   A S^t = 0, the last dim V columns of B^-1 are A^t A_P^-t.  Jacobi's
   theorem on complementary minors, for Y = B F B^t, whose leading k x k
   block is S F S^t, and Y^-1 = B^-t F^-1 B^-1, then gives
   det(S F S^t) = det F * det(A F^-1 A^t) * det(S_free)^2 / det(A_P)^2.
2. The kernel's elimination (:func:`~pvlab._linalg.kernel_basis`) gives
   the vector of free column f as a multiple of
   d e_f - sum_r m[r][f] e_{p_r}, with pivots p_r < f.  So S_free is
   diagonal, and c_f, its entry at f, is the vector's last nonzero
   coordinate.  A has integer entries and rank dim V, so every row is a
   pivot row and the last pivot d is +-det(A_P).

Both minors give the same value, so each report computes the cheaper one,
and the one exact elimination of A_x gives the isotropy basis and det(A_P).
The cost rule reads dim V, k and the bit length b of the last pivot d, with
no scan of the kernel entries.  The entries of N_x are small, while a Gram
entry sums products of two kernel entries of about b bits each, so det N_x
is taken when 24 dim V^3 < k^3 (2b + 8), constants fitted on diagrams of
rank 8 to 20, at a point where A_x has rank dim V.  The report then keeps
N_x, and its lattice reads that same matrix.

All verdicts use exact rational arithmetic.  A full report certifies its
generic point by the exact elimination of A_x itself (:func:`is_regular`),
so every reported rank comes from an exact kernel.  A large-prime modular
rank serves only the principal minors of N_x: full rank mod p, which can
only under-report, certifies a sum regular, and failing that an exact
determinant decides.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import mul, sub
from typing import Callable, NamedTuple, Sequence

from . import grading
from ._linalg import det, kernel_basis, modp_rank, rank, scaled_inverse
from ._rand import WIDE_BITS, Stream
from .chevalley import chevalley_basis
from .diagram import WeightedDiagram, render_compact, subdiagram

Matrix = Sequence[Sequence]


class PVError(Exception):
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


# ---------------------------------------------------------------------------
# instances


def _freeze(m: Matrix) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in m)


def _rows(m: Matrix) -> list[list[tuple[int, object]]]:
    """Each row of a dense matrix as its nonzero ``(column, value)`` pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m]


@dataclass(frozen=True)
class PVInstance:
    """A linear Lie algebra action with component/form/character bookkeeping.

    ``diagram`` is the weighted diagram of a :func:`build_parabolic_pv`
    instance, whose component i sits at circled node ``diagram.circled[i]``;
    restrictions, subalgebra instances and the matrix models have none.

    Each of ``operators`` is a dim_v x dim_v matrix given by its nonzero
    entries ``(row, col, value)``, ordered by row and then column, and each
    row of the symmetric dim_g x dim_g ``form`` and each of the linearly
    independent ``characters`` by its nonzero ``(column, value)`` pairs, by
    column; nothing is stored densely.  A parabolic root operator has at
    most one entry per column, and a Cartan operator is diagonal.
    """

    name: str
    operators: tuple[tuple[tuple[int, int, object], ...], ...]
    dim_v: int
    form: tuple[tuple[tuple[int, object], ...], ...]
    characters: tuple[tuple[tuple[int, object], ...], ...]
    components: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    diagram: WeightedDiagram | None = None

    @property
    def dim_g(self) -> int:
        return len(self.operators)


def make_instance(name, operators, dim_v, form, characters, components, labels,
                  diagram: WeightedDiagram | None = None) -> PVInstance:
    return PVInstance(
        name=name,
        operators=tuple(map(tuple, operators)),
        dim_v=dim_v,
        form=_freeze(form),
        characters=_freeze(characters),
        components=tuple(tuple(c) for c in components),
        labels=tuple(labels),
        diagram=diagram,
    )


def build_parabolic_pv(d: WeightedDiagram) -> PVInstance:
    """The level-0 subalgebra of a weighted diagram acting on level 1.

    Operator basis: the full Cartan followed by the level-0 root vectors in
    the order of ``rs.roots``: positive, then negative in the same order.  Form:
    the ambient Killing form restricted to that basis.  Characters: one per
    circled node (the Cartan coefficients that survive the derived
    subalgebra).

    The level-1 basis is that of :func:`pvlab.grading.components`, one
    component after another, and only the nonzero entries are written, row
    by row, into the operators.
    H_i acts on the level-1 root vector e_r by the pairing r(H_i).
    The root vector e_g of a level-0 root g sends e_r to N(g, r) e_s for
    each pair of level-1 roots (r, s) with s - r = g; such a pair lies in
    one component.  The Killing form pairs the Cartan with itself and each
    e_g with e_-g only, so each level-0 row of the form is one pair.
    """
    alg = chevalley_basis(d.type)
    rs = alg.rs
    n = d.type.rank
    circled_axes = [a - 1 for a in d.circled]
    level0 = [r for r in rs.roots if not any(map(r.__getitem__, circled_axes))]
    components = grading.components(d)
    level1 = [r for c in components for r in c.roots]
    entries: list[list] = [[] for _ in range(n + len(level0))]
    for k, r in enumerate(level1):
        for i, v in enumerate(alg.pairings[rs.index(r)]):  # the pairings r(H_i)
            if v:
                entries[i].append((k, k, v))
    position = {g: p for p, g in enumerate(level0)}
    ranges, offset = [], 0
    for c in components:
        for l, s in enumerate(c.roots, offset):
            for k, r in enumerate(c.roots, offset):
                p = position.get(tuple(map(sub, s, r)))
                if p is not None:
                    entries[n + p].append((l, k, alg.nconst[(level0[p], r)]))
        ranges.append(range(offset, offset + len(c.roots)))
        offset += len(c.roots)
    half = len(level0) // 2  # e_g and e_-g lie half the level-0 list apart
    form = _rows(alg.killing_h) + [[(n + (p + half) % len(level0), alg.root_killing[g])]
                                   for p, g in enumerate(level0)]
    characters = [[(a - 1, 1)] for a in d.circled]
    return make_instance(render_compact(d), entries, len(level1), form, characters,
                         ranges, [f"V[{c.alpha}]" for c in components], d)


# ---------------------------------------------------------------------------
# generic points, isotropy, regularity


class ReductivityCert(NamedTuple):
    reductive: bool
    determinant: Fraction


@dataclass(frozen=True)
class RegularityReport:
    prehomogeneous: bool
    generic_point: tuple[int, ...]
    orbit_rank: int
    isotropy_dim: int
    isotropy_basis: tuple[tuple[int, ...], ...]
    reductive: bool
    regular: bool
    n_fundamental_invariants: int
    form_determinant: Fraction
    # c N_x at the generic point, an integer matrix, when the form determinant
    # came from det N_x: the lattice reads its sums' minors from this matrix.
    reductivity_matrix: list[list] | None = field(default=None, repr=False, compare=False)


# Draws before :func:`is_regular` gives up.  Each draw is certified by its own
# exact elimination and the loop stops at the first of full rank, so raising
# the count keeps every point found within fewer draws; at 8, all draws of
# B6[1,2,3,4,5] at seed 9,002,031 missed the open orbit.
CANDIDATES = 32


def _action_columns(pv: PVInstance, x: Sequence) -> list[list]:
    """dim_v x dim_g matrix whose column i is (operator_i) x."""
    rows = [[0] * pv.dim_g for _ in range(pv.dim_v)]
    for i, entries in enumerate(pv.operators):
        for a, b, v in entries:
            rows[a][i] += v * x[b]
    return rows


def _candidates(pv: PVInstance, seed: int):
    """The :data:`CANDIDATES` seeded draws of generic-point candidates."""
    stream = Stream(seed, context="generic:" + pv.name)
    for _ in range(CANDIDATES):
        yield stream.vector(pv.dim_v)


def _gram(form: Matrix, vectors: Sequence[Sequence]) -> list[list]:
    """A symmetric form F, stored by rows of pairs, on the rows S of ``vectors``: S F S^t.

    Row i of S F is summed over the nonzeros of row i of S and the rows of
    F, and entry (i, j) over the nonzeros of row j of S.  S F S^t is
    symmetric: the entries on and above the diagonal are computed and
    mirrored below it.
    """
    supports = [[(a, ta) for a, ta in enumerate(t) if ta] for t in vectors]
    n = len(vectors)
    gram = [[0] * n for _ in range(n)]
    for i, support in enumerate(supports):
        image = [0] * len(form)
        for a, ta in support:
            for b, fb in form[a]:
                image[b] += ta * fb
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum([ta * image[a] for a, ta in supports[j]])
    return gram


def is_reductive(pv: PVInstance, subalgebra: Sequence[Sequence]) -> ReductivityCert:
    """Nondegeneracy verdict of the instance form restricted to a subalgebra.

    Sound as a reductivity test because every instance form is the trace
    form of a faithful module of the ambient algebra.
    """
    d = det(_gram(pv.form, subalgebra))
    return ReductivityCert(d != 0, d)


def _restricted_characters(pv: PVInstance, vectors: Sequence[Sequence]) -> list[list]:
    """Each character of the instance on each of the algebra vectors, one row per character."""
    return [[sum(v * s[b] for b, v in row) for s in vectors] for row in pv.characters]


def is_regular(pv: PVInstance, seed: int = 0) -> RegularityReport:
    """Full verdict at a seeded generic point, everything exact.

    This is the one path from an instance and a seed to a point and its
    isotropy.  Each of the :func:`_candidates` in turn gets its action
    matrix A_x and the exact kernel of A_x, and x is the first draw whose
    orbit rank reaches min(dim_v, dim_g), or else the first draw of the
    highest rank.  The isotropy basis, the orbit rank and the form
    determinant all come from that draw's one elimination, so a draw that
    misses costs one exact elimination and no draw is eliminated twice.  An
    instance with a ``diagram`` is prehomogeneous (Vinberg), so there an
    orbit rank below dim_v raises :class:`NonGenericPoint` instead of
    becoming a verdict.  At a point of orbit rank dim_v the form
    determinant comes from det N_x (:func:`_reductivity_matrix`, which
    raises on a degenerate form) whenever the cost rule of the module
    docstring finds it cheaper, and the report keeps the c N_x it built;
    otherwise it is the Gram determinant (:func:`is_reductive`)."""
    best = None
    for x in _candidates(pv, seed):
        a = _action_columns(pv, x)
        iso, orbit_rank, d = kernel_basis(a)
        if best is None or orbit_rank > best[3]:
            best = x, a, iso, orbit_rank, d
            if orbit_rank == min(pv.dim_v, pv.dim_g):
                break
    x, a, iso, orbit_rank, d = best
    preh = orbit_rank == pv.dim_v
    if pv.diagram is not None and not preh:
        raise NonGenericPoint(f"{pv.name}: orbit rank {orbit_rank} below {pv.dim_v} "
                              f"at {CANDIDATES} draws")
    n = None
    if preh and 24 * pv.dim_v ** 3 < len(iso) ** 3 * (2 * d.bit_length() + 8):
        n, c, det_f = _reductivity_matrix(pv, a)
        scale = prod(next(v for v in reversed(s) if v) for s in iso)  # the c_f
        determinant = det_f * det(n) * scale ** 2 / (c ** pv.dim_v * d ** 2)
    else:
        determinant = is_reductive(pv, iso).determinant
    return RegularityReport(
        prehomogeneous=preh,
        generic_point=tuple(x),
        orbit_rank=orbit_rank,
        isotropy_dim=len(iso),
        isotropy_basis=_freeze(iso),
        reductive=determinant != 0,
        regular=preh and determinant != 0,
        n_fundamental_invariants=len(pv.characters) - rank(_restricted_characters(pv, iso)),
        form_determinant=determinant,
        reductivity_matrix=n,
    )


# ---------------------------------------------------------------------------
# subspace lattice: restriction, Q-irreducibility, filtration


def _component_subset(pv: PVInstance, indices) -> tuple[int, ...]:
    """The sorted distinct component indices, raising :class:`EmptySubset`
    when there are none or one is out of range."""
    idxs = tuple(sorted(set(indices)))
    if not idxs:
        raise EmptySubset(pv.name)
    for i in idxs:
        if not 0 <= i < len(pv.components):
            raise EmptySubset(f"component index {i} out of range in {pv.name}")
    return idxs


def restrict(pv: PVInstance, indices) -> PVInstance:
    """Same algebra acting on the sum of the selected components.

    The operators are the parent's entries whose row and column both lie in
    the sum, renumbered; every instance's components are ascending ranges of
    coordinates, so the renumbering is increasing and keeps their order."""
    idxs = _component_subset(pv, indices)
    if idxs == tuple(range(len(pv.components))):
        return pv
    coords = [c for i in idxs for c in pv.components[i]]
    new = {c: k for k, c in enumerate(coords)}
    operators = [[(new[a], new[b], v) for a, b, v in op if a in new and b in new]
                 for op in pv.operators]
    components, offset = [], 0
    for i in idxs:
        size = len(pv.components[i])
        components.append(tuple(range(offset, offset + size)))
        offset += size
    labels = [pv.labels[i] for i in idxs]
    name = pv.name + "/" + "+".join(labels)
    return make_instance(name, operators, len(coords), pv.form, pv.characters, components, labels)


def principal_minor_regular(pv: PVInstance, subset: tuple[int, ...], n: Matrix) -> bool:
    """Whether the principal minor of ``n``, c N_x of the whole instance at
    a point x, at the coordinates of the component sum ``subset`` is
    invertible: full rank mod p certifies it, and otherwise the exact
    determinant decides.  That minor is c N of the sum at the projection of
    x, so an invertible one certifies the sum regular (see the module
    docstring)."""
    coords = [c for i in subset for c in pv.components[i]]
    minor = [[n[r][c] for c in coords] for r in coords]
    return modp_rank(minor) == len(coords) or det(minor) != 0


@cache
def _block_inverse(key: tuple) -> tuple[tuple, int, Fraction]:
    """The inverse of one connected block of an instance form, given by the
    block's rows with each column read as its position in the block: its
    integer rows over one denominator, that denominator, and its
    determinant.  Raises ``ValueError`` on a singular block."""
    dense = [[dict(pairs).get(k, 0) for k in range(len(key))] for pairs in key]
    inv, q, block_det = scaled_inverse(dense)
    return tuple(tuple((k, v) for k, v in enumerate(row) if v) for row in inv), q, block_det


def _form_inverse(pv: PVInstance) -> tuple[list[list[tuple[int, int]]], int, Fraction]:
    """c F^-1 as sparse integer rows, the least such c > 0, and det F.

    Two indices of the form F are joined when the entry between them is
    nonzero.  F is block diagonal over the connected blocks, so F^-1 is
    too and det F is the product of the block determinants.  Each block is
    read in increasing index order, and each distinct block matrix is
    inverted once per process (:func:`_block_inverse`).  Raises
    :class:`PVError` on a degenerate F."""
    form, seen, found = pv.form, [False] * pv.dim_g, []
    for i in range(pv.dim_g):
        if seen[i]:
            continue
        block, todo, seen[i] = [], [i], True
        while todo:
            block.append(todo.pop())
            for k, _ in form[block[-1]]:
                if not seen[k]:
                    seen[k] = True
                    todo.append(k)
        block.sort()
        key = tuple(tuple((block.index(k), v) for k, v in form[j]) for j in block)
        try:
            found.append((block, _block_inverse(key)))
        except ValueError:
            raise PVError(f"{pv.name}: the form is degenerate, so N_x needs an F^-1 "
                          "that does not exist") from None
    c = lcm(*(q for _, (_, q, _) in found))
    g: list[list[tuple[int, int]]] = [[] for _ in range(pv.dim_g)]
    for block, (rows, q, _) in found:
        m = c // q
        for j, row in zip(block, rows):
            g[j] = [(block[k], v * m) for k, v in row]
    return g, c, prod(block_det for _, (_, _, block_det) in found)


def _reductivity_matrix(pv: PVInstance, a: Matrix) -> tuple[list[list[int]], int, Fraction]:
    """c N_x = A_x (c F^-1) A_x^t for ``a`` = A_x, an integer symmetric
    matrix, with c and det F from :func:`_form_inverse` (which raises on a
    degenerate F): the form c F^-1 on the rows of A_x, as :func:`_gram` does."""
    g, c, det_f = _form_inverse(pv)
    return _gram(g, a), c, det_f


def subalgebra_instance(pv: PVInstance, vectors: Sequence[Sequence]) -> PVInstance:
    """The same module under the subalgebra spanned by the given vectors;
    an operator entry whose terms cancel is dropped.

    Its characters are the first restricted characters that are independent
    of the ones before them, a basis of the restricted characters.  Its
    form, the parent form on the vectors, is nondegenerate only on a
    reductive span, and N_x needs that: on any other span every det N_x and
    every lattice verdict of a proper sum raise :class:`PVError`.
    :func:`decompose_filtration` passes only the isotropy of a regular sum."""
    operators = []
    for s in vectors:
        sums: dict[tuple[int, int], object] = {}
        for b, sb in enumerate(s):
            if sb:
                for a, c, v in pv.operators[b]:
                    sums[a, c] = sums.get((a, c), 0) + sb * v
        operators.append(sorted((a, c, v) for (a, c), v in sums.items() if v))
    characters = []
    for restricted in _restricted_characters(pv, vectors):
        if rank(characters + [restricted]) > len(characters):
            characters.append(restricted)
    return make_instance(pv.name + ".isotropy", operators, pv.dim_v,
                         _rows(_gram(pv.form, vectors)), _rows(characters),
                         pv.components, pv.labels)


@dataclass(frozen=True)
class QIrreducibilityReport:
    q_irreducible: bool
    witness: tuple[int, ...] | None
    regularity: RegularityReport


# Regularity verdict of each subdiagram piece, keyed by the diagram, at every
# seed.  Piece verdicts and the full reports of parabolic instances both fill
# it, and neither overwrites an entry, since both are exact.
_PIECE_VERDICTS: dict[WeightedDiagram, bool] = {}


class SubsetLattice:
    """Regularity of every sum of irreducible components of one instance.

    One :class:`RegularityReport` per subset of component indices (``full``
    is all of them), computed on first use at the lattice's seed by direct
    restriction.  Every Q-verdict reads the yes/no answer of
    :meth:`is_regular_sum`.  For the full subset that is the full report's
    verdict.  A proper subset reads a principal minor of c N_x at the full
    report's generic point (:func:`principal_minor_regular`), for a
    parabolic instance one minor per piece of the subset's
    :func:`~pvlab.diagram.subdiagram`, through the process-wide table of
    piece verdicts (see the module docstring).  An invertible minor
    certifies "regular"; a singular one certifies "not regular" when the
    full report is prehomogeneous, as every parabolic one is, and otherwise
    the sum's own report decides.  The lattice reads the c N_x the full
    report kept, or builds it on its first minor.

    >>> from pvlab.diagram import parse_diagram
    >>> lattice = SubsetLattice(build_parabolic_pv(parse_diagram("A3[1,3]")))
    >>> lattice.q_irreducibility().q_irreducible
    True
    >>> lattice.regular((0,)).regular
    False
    """

    def __init__(self, pv: PVInstance, seed: int = 0) -> None:
        self.pv = pv
        self.seed = seed
        self.full = tuple(range(len(pv.components)))
        self._regular: dict[tuple[int, ...], RegularityReport] = {}
        self._verdict: dict[tuple[int, ...], bool] = {}
        self._n: list[list[int]] | None = None  # c N_x at the full report's point

    def regular(self, subset: tuple[int, ...]) -> RegularityReport:
        """The exact report of the restriction to ``subset``."""
        if subset not in self._regular:
            report = is_regular(restrict(self.pv, subset), self.seed)
            if subset == self.full and self.pv.diagram is not None:
                _PIECE_VERDICTS.setdefault(self.pv.diagram, report.regular)
            self._regular[subset] = report
        return self._regular[subset]

    def is_regular_sum(self, subset: tuple[int, ...]) -> bool:
        """Whether the restriction to ``subset`` is regular, from principal
        minors of c N_x for a proper subset, piece by piece for a parabolic
        instance.

        The subset is checked as :func:`restrict` checks it."""
        if subset == self.full:
            return self.regular(subset).regular
        if subset not in self._verdict:
            _component_subset(self.pv, subset)
            d = self.pv.diagram
            if d is None:
                self._verdict[subset] = self._minor_verdict(subset)
            else:
                pieces = subdiagram(d, [d.circled[i] for i in subset]).pieces
                self._verdict[subset] = all(self._piece_verdict(nodes, piece)
                                            for nodes, piece in pieces)
        return self._verdict[subset]

    def _piece_verdict(self, nodes: tuple[int, ...], piece: WeightedDiagram) -> bool:
        if piece not in _PIECE_VERDICTS:
            own = tuple(i for i, a in enumerate(self.pv.diagram.circled) if a in nodes)
            _PIECE_VERDICTS[piece] = self._minor_verdict(own)
        return _PIECE_VERDICTS[piece]

    def _minor_verdict(self, subset: tuple[int, ...]) -> bool:
        report = self.regular(self.full)
        if self._n is None:
            self._n = report.reductivity_matrix or _reductivity_matrix(
                self.pv, _action_columns(self.pv, report.generic_point))[0]
        return (principal_minor_regular(self.pv, subset, self._n)
                or not report.prehomogeneous and self.regular(subset).regular)

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
        first, rest = subset[0], subset[1:]
        blocks = ((first,) + extra for k in range(len(rest) + 1)
                  for extra in itertools.combinations(rest, k))
        return any(self.q_irreducible(block)
                   and self.completely_q_reducible(tuple(i for i in subset if i not in block))
                   for block in blocks)

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
    return FiltrationReport(tuple(stages))


# ---------------------------------------------------------------------------
# invariant verification


@dataclass(frozen=True)
class Invariant:
    """A polynomial on the module, given as a black-box exact evaluator.

    ``evaluate`` gets a list of ``int`` coordinates near the sample points
    of :func:`verify_invariant`, whose entries are small (in [-9, 9]) or
    wide (up to 61 bits).  It must use exact arithmetic (``/`` on two
    ints makes a float).  The polynomial has degree at most ``degree``, and
    exactly ``degree`` in every term when :func:`verify_invariant` expects
    it to be nondegenerate.
    """

    name: str
    degree: int
    evaluate: Callable[[Sequence], object]


@dataclass(frozen=True)
class InvariantReport:
    """``error_bound`` bounds the chance that check (a) of
    :func:`verify_invariant` passed an operator along which f is not
    relatively invariant; :func:`pvlab.models.verify_model` prints it as
    ``error <= 2^-e``, e rounded down."""

    name: str
    constants: tuple
    error_bound: Fraction


def _derivative_weights(degree: int) -> tuple[list[int], list[int], int]:
    """Integer first/second derivative-at-0 weights ``(w1, w2, scale)`` over
    the nodes 0..degree.

    Any univariate polynomial p of degree <= ``degree`` satisfies, exactly,
    scale * p'(0) = sum_j w1[j] p(j) and scale**2 * p''(0) = sum_j w2[j] p(j).
    Row j of V^-1, for the Vandermonde matrix V[k][j] = j**k, holds the
    ascending coefficients of node j's Lagrange polynomial; with
    V^-1 = m / scale in lowest terms (:func:`scaled_inverse`), w1[j] = m[j][1]
    and w2[j] = 2 scale m[j][2], zero below degree 1 and 2.

    Examples
    ========
    >>> _derivative_weights(2)
    ([-3, 4, -1], [4, -8, 4], 2)
    """
    nodes = range(degree + 1)
    m, scale, _ = scaled_inverse([[j ** k for j in nodes] for k in nodes])
    w1 = [row[1] if degree >= 1 else 0 for row in m]
    w2 = [2 * scale * row[2] if degree >= 2 else 0 for row in m]
    return w1, w2, scale


def _line_sums(f: Invariant, x: Sequence, fx, moves: Sequence[Sequence[int]],
               weights: Sequence[Sequence]) -> list[list]:
    """For each move and each weight row w, sum_j w[j] f(x + j u), given
    fx = f(x), where u is the indicator vector of the move's axes.

    With the weights of :func:`_derivative_weights` these are scale (resp.
    scale**2) times the first (second) derivatives of f along u.  Each
    point x + j u is evaluated once, on a fresh list, and a node j whose
    weights are all zero is not evaluated.
    """
    nodes = [j for j in range(1, len(weights[0])) if any(w[j] for w in weights)]
    out = []
    for axes in moves:
        sums = [w[0] * fx for w in weights]
        for j in nodes:
            y = list(x)
            for a in axes:
                y[a] += j
            v = f.evaluate(y)
            sums = [acc + w[j] * v for acc, w in zip(sums, weights)]
        out.append(sums)
    return out


def _axis_derivatives(f: Invariant, x: Sequence, fx, w1: Sequence,
                      w2: Sequence) -> tuple[list, list]:
    """scale times the gradient of f at x, and scale**2 times the diagonal
    of its Hessian, given fx = f(x): both are line sums along each unit
    vector e_i, read from the same values f(x + j e_i)."""
    sums = _line_sums(f, x, fx, [(i,) for i in range(len(x))], (w1, w2))
    return [g for g, _ in sums], [d for _, d in sums]


def _hessian(f: Invariant, x: Sequence, fx, w2: Sequence, diag: Sequence) -> list[list]:
    """2 * scale**2 times the Hessian of f at x, by polarization, given the
    diagonal from :func:`_axis_derivatives`.

    With D(u) the second derivative along u, D(e_i + e_l) - D(e_i) - D(e_l)
    is twice the (i, l) entry, so the diagonal is doubled to match and no
    entry is ever divided.
    """
    n = len(x)
    pairs = [(i, l) for i in range(n) for l in range(i + 1, n)]
    h = [[2 * d if i == l else 0 for l in range(n)] for i, d in enumerate(diag)]
    for (i, l), (s,) in zip(pairs, _line_sums(f, x, fx, pairs, (w2,))):
        h[i][l] = h[l][i] = s - diag[i] - diag[l]
    return h


INVARIANT_POINTS = 20
WIDE_POINTS = 2


def verify_invariant(pv: PVInstance, f: Invariant, seed: int = 0, *,
                     expect_nondegenerate: bool = True) -> InvariantReport:
    """Certify that f transforms by a character under the instance's algebra.

    The samples are the reference x_b, the first of up to
    ``INVARIANT_POINTS`` small-integer draws (entries in [-9, 9]) at which
    f does not vanish, and k = ``WIDE_POINTS`` wide points drawn after it
    from the same splitmix64 stream, with entries uniform in [0, 2**61).
    Checks, in order: (a) for every operator M the derivative of f along
    Mx is the same multiple of f at every sample; (b) if nondegeneracy is
    expected, the Hessian determinant is nonzero at x_b, or else at a
    wide point where f does not vanish, tried in turn; (c) Euler's identities
    grad . x = d f and H x = (d - 1) grad hold at that point, d =
    ``f.degree``.  The constants of (a), one per operator, are the
    differential of f's character, which :func:`pvlab.models.verify_model`
    compares with a model's declared weight.

    Everything is exact.  Sample points are integer vectors and derivatives
    carry the integer scaling of :func:`_derivative_weights`, so with an
    integer evaluator no rational is formed until the reported constants.
    (a) takes D_i = grad . (M x_i) at every sample x_i and tests
    D_i f(x_b) = D_b f(x_i), which at a zero of f asks D_i = 0; the constant
    is D_b / (scale f(x_b)).  (b) and (c) use g = scale * grad and
    h = 2 * scale**2 * H, for which (c) reads g . x = scale d f and
    h x = 2 scale (d - 1) g.

    (a) is a polynomial identity test, and the report's ``error_bound``,
    dim_g (d / 2**61)**k, bounds the chance that it passes an operator
    along which f is not relatively invariant.  Fix M and x_b.  The test
    at x reads P(x) = 0 for P(x) = f(x_b) scale grad f(x) . (M x)
    - D_b f(x), a polynomial of degree <= d.  If P were zero, grad f . Mx
    would be D_b / (scale f(x_b)) times f, so f would be relatively
    invariant along M; hence P is nonzero.  A wide point is uniform on
    S^dim_v with |S| = 2**61, drawn after x_b, so by the Schwartz-Zippel
    lemma (Schwartz, J. ACM 27 (1980); Zippel, EUROSAM 1979) P vanishes
    there with probability at most d / 2**61, and at all k independent
    wide points with probability at most (d / 2**61)**k.  The union bound
    over the dim_g operators gives the report's bound.  It treats the
    splitmix64 draws as uniform and independent.  At x_b itself the test holds for
    every f; x_b gives the constants.

    A report taken with ``expect_nondegenerate`` also certifies, by (c), that
    the graded-logarithm differential f*H - grad*grad^t has full rank
    dim_v.  With f(x) != 0 and det H != 0, the identities rule out d = 1
    (H x = 0 would force x = 0, and then grad . x = 0 != f), so
    H^-1 grad = x / (d - 1), and the matrix determinant lemma gives
    f^dim_v det H = (1 - d) det(f*H - grad*grad^t), which is nonzero.

    f must be a polynomial of degree <= ``f.degree``, which the integer
    derivative weights need anyway, and homogeneous of degree ``f.degree``
    when nondegeneracy is expected, or (c) fails.  Then the weighted line
    derivative sum_j w1[j] f(x + j u) is exactly scale times
    grad f(x) . u, which is linear in u.  So (a) takes the scaled gradient
    once per sample, from f(x + j e_i) (:func:`_axis_derivatives`),
    and reads the derivative along each M x as grad . (M x), the sum of
    grad[a] * c * x[b] over the operator's entries (a, b, c), with no
    image M x formed: dim_v * degree evaluations per sample, not
    dim_g * degree.  The same values give the Hessian diagonal, and at the
    Hessian point (b) and (c) reuse both, so only the off-diagonal entries
    are evaluated there.
    """
    stream = Stream(seed, context=f"invariant:{pv.name}:{f.name}")
    for _ in range(INVARIANT_POINTS):
        x = stream.vector(pv.dim_v)
        fx = f.evaluate(x)
        if fx != 0:
            break
    else:
        raise DegenerateInvariant(f"{f.name} vanishes at all {INVARIANT_POINTS} sample points")
    xs = [x] + [stream.wide_vector(pv.dim_v) for _ in range(WIDE_POINTS)]
    vals = [fx] + [f.evaluate(y) for y in xs[1:]]
    w1, w2, scale = _derivative_weights(f.degree)
    axes = [_axis_derivatives(f, x, v, w1, w2) for x, v in zip(xs, vals)]  # (grad, diag) at x
    constants = []
    for mi, entries in enumerate(pv.operators):
        gs = [sum(grad[a] * c * x[b] for a, b, c in entries)  # grad . (M x)
              for (grad, _), x in zip(axes, xs)]
        if any(g * fx != gs[0] * v for g, v in zip(gs, vals)):
            raise NotRelativeInvariant(
                f"{f.name}: derivative along operator {mi} is not proportional to f",
                direction=mi)
        constants.append(Fraction(gs[0], scale * fx))
    if expect_nondegenerate:
        nonvanishing = [i for i, v in enumerate(vals) if v != 0]
        for i in nonvanishing:
            grad, diag = axes[i]
            h = _hessian(f, xs[i], vals[i], w2, diag)
            if det(h) != 0:
                break
        else:
            raise DegenerateInvariant(
                f"{f.name}: Hessian determinant zero at {len(nonvanishing)} samples")
        x, d = xs[i], f.degree
        if sum(map(mul, grad, x)) != scale * d * vals[i]:
            raise DegenerateInvariant(f"{f.name}: Euler's identity grad . x = d f fails, d = {d}")
        if any(sum(map(mul, row, x)) != 2 * scale * (d - 1) * g for row, g in zip(h, grad)):
            raise DegenerateInvariant(
                f"{f.name}: Euler's identity H x = (d - 1) grad fails, d = {d}")
    return InvariantReport(name=f.name, constants=tuple(constants),
                           error_bound=pv.dim_g * Fraction(f.degree, 1 << WIDE_BITS) ** WIDE_POINTS)
