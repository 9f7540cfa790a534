"""The types and the dense instance form behind the digests frozen in tests/data.

An instance stores each operator as its nonzero entries ``(row, col,
value)``, by rows, and each row of its form and each character as its
nonzero ``(column, value)`` pairs.  The frozen digests were taken over
dense operators, forms and characters, so :func:`dense_repr` rebuilds them.
The tests are the only readers of the dense matrices.

It also holds what several test modules share: the tier-1 sweep, an
identity matrix, a simple root, the Cartan integer of two adjacent nodes
read from their lengths, the exact isotropy basis at a point, a
generic-point search by mod-p ranks alone (a reference for the point
``pvcore.is_regular`` certifies), the Killing pairing with the grading
element, the one reference M = A_x B_x of a parabolic instance, read from
the Chevalley brackets by basis index, against which the reductivity
matrix N_x that ``pvcore`` builds from the form alone is checked, the
sample points of ``pvcore.verify_invariant``, the Hessian product
identity, and a rank reference for the graded-logarithm differential
that ``pvcore.verify_invariant`` certifies by Euler's identities.
"""
from __future__ import annotations

import dataclasses
import itertools

from pvlab import _linalg, grading, pvcore
from pvlab._rand import Stream
from pvlab.chevalley import chevalley_basis
from pvlab.diagram import WeightedDiagram
from pvlab.rootsys import SimpleType

# Every multi-circle diagram of the tier-1 sweep (A1-7, B2-7, C3-7, D4-7,
# E6) and of the second catalog (rank 8 of A-D, E7, E8, F4, G2), plus the
# few-circle rank 10-14 and E8 diagrams of the benchmark's large workload.
FROZEN_ENUMERATED = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                     + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
                     + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
# The tier-1 sweep: every multi-circle diagram of these types, 927 in all,
# type by type.
SWEEP_TYPES = ([SimpleType("A", n) for n in range(1, 8)]
               + [SimpleType("B", n) for n in range(2, 8)]
               + [SimpleType("C", n) for n in range(3, 8)]
               + [SimpleType("D", n) for n in range(4, 8)]
               + [SimpleType("E", 6)])
SWEEP = [WeightedDiagram(t, circled) for t in SWEEP_TYPES for size in range(2, t.rank + 1)
         for circled in itertools.combinations(range(1, t.rank + 1), size)]
# The second catalog: rank 8 and the exceptional types, where the E7 and E8
# rows make their only claims.
SECOND_CATALOG_TYPES = [SimpleType("A", 8), SimpleType("B", 8), SimpleType("C", 8),
                        SimpleType("D", 8), SimpleType("E", 7), SimpleType("E", 8),
                        SimpleType("F", 4), SimpleType("G", 2)]
FROZEN_LARGE = ("A12[1,12]", "A12[3,10]", "B10[1,10]", "C12[3,10]", "D12[2,11,12]",
                "D10[2,4,6,8]", "A14[2,13]", "E8[1,3,5,7]", "E8[1,2]")


def dense_operator(pv, entries) -> tuple[tuple, ...]:
    """The dim_v x dim_v matrix of one operator.  The entries must be
    exactly its nonzeros, by rows, with no entry written twice."""
    m = [[0] * pv.dim_v for _ in range(pv.dim_v)]
    for a, b, v in entries:
        m[a][b] = v
    scan = tuple((a, b, v) for a, row in enumerate(m) for b, v in enumerate(row) if v)
    assert tuple(entries) == scan, f"{pv.name}: operator entries are not its nonzeros by rows"
    return tuple(map(tuple, m))


def dense_rows(pv, rows) -> tuple[tuple, ...]:
    """The dense rows of width dim_g behind rows of ``(column, value)``
    pairs.  The pairs must be exactly each row's nonzeros, by column."""
    dense = [[0] * pv.dim_g for _ in rows]
    for out, row in zip(dense, rows):
        for j, v in row:
            out[j] = v
        scan = tuple((j, v) for j, v in enumerate(out) if v)
        assert tuple(row) == scan, f"{pv.name}: a row's pairs are not its nonzeros by column"
    return tuple(map(tuple, dense))


def dense_repr(pv) -> str:
    """``repr(astuple(pv))`` with every operator, the form and the
    characters dense, without astuple's deep copy of every entry: the
    diagram is the one field that is a dataclass."""
    fields = []
    for f in dataclasses.fields(pv):
        v = getattr(pv, f.name)
        if f.name == "operators":
            v = tuple(dense_operator(pv, op) for op in v)
        elif f.name in ("form", "characters"):
            v = dense_rows(pv, v)
        elif dataclasses.is_dataclass(v):
            v = dataclasses.astuple(v)
        fields.append(v)
    return repr(tuple(fields))


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def simple_root(rank: int, i: int) -> tuple[int, ...]:
    """The simple root alpha_i (1-based) in the simple-root basis."""
    return tuple(int(j == i) for j in range(1, rank + 1))


def length_rule(rs, alpha: int, beta: int) -> int:
    """alpha(H_beta) for adjacent nodes, from the relative lengths alone:
    -1 when alpha is not longer than beta, else minus the bond multiplicity."""
    la, lb = rs.lengths[alpha - 1], rs.lengths[beta - 1]
    return -1 if la <= lb else -(la // lb)


def isotropy_algebra(pv, x) -> list[list[int]]:
    """Exact kernel basis of a -> (sum a_i op_i) x, in algebra coordinates."""
    return _linalg.kernel_basis(pvcore._action_columns(pv, x))[0]


def searched_draw(pv, seed: int) -> tuple[int, ...]:
    """The generic point found by mod-p ranks alone: the first of
    ``pvcore._candidates`` whose action matrix reaches rank
    min(dim_v, dim_g) mod P61, or else the first draw of the highest such
    rank.  A reference for the point ``pvcore.is_regular`` certifies by
    exact eliminations."""
    cap = min(pv.dim_v, pv.dim_g)
    best_x, best_r = None, -1
    for x in pvcore._candidates(pv, seed):
        r = _linalg.modp_rank(pvcore._action_columns(pv, x))
        if r > best_r:
            best_x, best_r = x, r
        if best_r == cap:
            break
    return tuple(best_x)


def grading_pairing(d) -> list[int]:
    """w with w_i = sum over the positive roots g of level(g) g(H_i), level(g)
    being g's coefficient sum at the circled nodes.

    The Killing form K(H_0, a) of the grading element with a in g_0 is
    2 sum_r level(r) r(a) over all roots r, which is 4 w . a[:rank]: it reads
    only a's Cartan coordinates, the first ``rank`` of the operator basis of
    ``pvcore.build_parabolic_pv``.  The neutral element H of a regular
    report's sl2-triple lies in H_0 + h and in the K-orthogonal of the
    isotropy h, on which K is nondegenerate (see the pvcore docstring), so
    H = H_0 exactly when w . a[:rank] = 0 for every isotropy vector a."""
    alg = chevalley_basis(d.type)
    levels = [sum(g[a - 1] for a in d.circled) for g in alg.rs.positive]
    # the positive roots' pairing rows come first, so zip stops after them
    return [sum(level * row[i] for level, row in zip(levels, alg.pairings))
            for i in range(alg.rank)]


def lie_bracket(alg, u: dict, v: dict) -> dict:
    """[u, v] for elements given as {Chevalley basis index: coefficient}."""
    out: dict = {}
    for i, ui in u.items():
        for j, vj in v.items():
            for k, c in alg.bracket(i, j):
                out[k] = out.get(k, 0) + c * ui * vj
    return {k: c for k, c in out.items() if c}


def level_one_roots(d) -> list[tuple[int, ...]]:
    """The level-1 root at each coordinate of ``build_parabolic_pv(d)``:
    the roots of ``grading.components(d)``, one component after another."""
    return [r for c in grading.components(d) for r in c.roots]


def ad_square_by_index(pv, x, a=None) -> list[list]:
    """M transposed, for M = A_x B_x of a parabolic instance at x, as the
    basis indices give it: row r is A_x [x, e_-r], with [x, e_-r] expanded
    by ChevalleyBasis.bracket over e_index and each basis index sent to its
    operator (the Cartan, then the level-0 root vectors in root order).
    ``a`` is A_x, computed when not given."""
    d = pv.diagram
    alg = chevalley_basis(d.type)
    n = alg.rank
    level0 = [g for g in alg.rs.roots if not any(g[c - 1] for c in d.circled)]
    operator = {**{i: i for i in range(n)},
                **{alg.e_index(g): n + p for p, g in enumerate(level0)}}
    roots = level_one_roots(d)
    if a is None:
        a = pvcore._action_columns(pv, x)
    xs = {alg.e_index(s): v for s, v in zip(roots, x) if v}
    mt = []
    for r in roots:
        y: dict = {}  # [x, e_-r] in the operator basis, by its nonzeros
        for k, c in lie_bracket(alg, xs, {alg.e_index(tuple(-v for v in r)): 1}).items():
            y[operator[k]] = y.get(operator[k], 0) + c
        mt.append([sum(row[j] * c for j, c in y.items()) for row in a])
    return mt


def kappas(pv) -> list[int]:
    """kappa_r = K(e_r, e_-r) at each level-1 coordinate of a parabolic instance."""
    alg = chevalley_basis(pv.diagram.type)
    return [alg.root_killing[r] for r in level_one_roots(pv.diagram)]


def is_m_over_kappa(pv, n, c, mt) -> bool:
    """Whether c N = c D_kappa^-1 M^T entry for entry, for ``n`` = c N_x and
    ``mt`` = M^T at the same point: M^T[r][s] c = kappa_r n[r][s]."""
    return ([[k * v for v in row] for k, row in zip(kappas(pv), n)]
            == [[m * c for m in mrow] for mrow in mt])


def sl2_triple_neutral(pv, x) -> bool:
    """Check the sl2-triple of a regular parabolic report exactly, and say
    whether its neutral element is the grading element H_0.

    With M = A_x B_x invertible on all of level 1, y = 2 M^-1 x at level -1
    and H = [x, y] must satisfy [[x, y], x] = 2x, which M encodes, and
    [H, y] = -2y, which reads the brackets of g_0 with level -1 that M never
    uses (see the pvcore docstring).  g_0 acts faithfully on level 1, so
    H = H_0 exactly when [H, e_r] = 2 e_r for every level-1 root r."""
    alg = chevalley_basis(pv.diagram.type)
    roots = level_one_roots(pv.diagram)
    mt = ad_square_by_index(pv, x)
    y = _linalg.solve(_linalg.transpose(mt), [2 * v for v in x])
    xe = {alg.e_index(r): v for r, v in zip(roots, x) if v}
    ye = {alg.e_index(tuple(-c for c in r)): v for r, v in zip(roots, y) if v}
    h = lie_bracket(alg, xe, ye)
    assert lie_bracket(alg, h, xe) == {k: 2 * v for k, v in xe.items()}, pv.name
    assert lie_bracket(alg, h, ye) == {k: -2 * v for k, v in ye.items()}, pv.name
    return all(lie_bracket(alg, h, {alg.e_index(r): 1}) == {alg.e_index(r): 2}
               for r in roots)


def invariant_samples(pv, f, seed: int = 0) -> list[list[int]]:
    """The samples of ``pvcore.verify_invariant``: the reference x_b, the
    first small draw where f does not vanish, then the wide draws that
    follow it on the same stream."""
    stream = Stream(seed, context=f"invariant:{pv.name}:{f.name}")
    small = (stream.vector(pv.dim_v) for _ in range(pvcore.INVARIANT_POINTS))
    base = next(x for x in small if f.evaluate(x) != 0)
    return [base] + [stream.wide_vector(pv.dim_v) for _ in range(pvcore.WIDE_POINTS)]


class IdentityViolation(Exception):
    pass


HESSIAN_POINTS = 5


def _dlog(fx, h, grad) -> list[list]:
    """f*h - 2 g g^t: with h = 2 * scale**2 * H and g = scale * grad, this is
    2 * scale**2 * (f*H - grad*grad^t), the graded-logarithm differential."""
    return [[fx * hab - 2 * ga * gb for hab, gb in zip(row, grad)] for row, ga in zip(h, grad)]


def hessian_product_identity_check(f, dim: int, seed: int = 0) -> None:
    """Exact check of  f^dim * det(Hessian f) = (1 - deg f) * det(f*H - grad*grad^t).

    Both sides are polynomials; they are compared at ``HESSIAN_POINTS``
    seeded integer sample points, resampling any point where f vanishes, and
    a violation raises :class:`IdentityViolation`.
    The check uses h = 2 * scale**2 * H and g = scale * grad from the
    integer derivative weights, so f*h - 2*g*g^t is
    2 * scale**2 * (f*H - grad*grad^t) and both sides carry the same factor
    (2 * scale**2)**dim.  Nothing is divided: with an integer evaluator both
    sides are integer-valued.
    """
    stream = Stream(seed, context=f"hessid:{f.name}")
    w1, w2, _ = pvcore._derivative_weights(f.degree)
    done = 0
    attempts = 0
    while done < HESSIAN_POINTS:
        attempts += 1
        if attempts > 50 * HESSIAN_POINTS:
            raise pvcore.DegenerateInvariant(
                f"{f.name}: could not find {HESSIAN_POINTS} nonvanishing points")
        x = stream.vector(dim)
        fx = f.evaluate(x)
        if fx == 0:
            continue
        grad, diag = pvcore._axis_derivatives(f, x, fx, w1, w2)
        h = pvcore._hessian(f, x, fx, w2, diag)
        lhs = fx ** dim * _linalg.det(h)
        rhs = (1 - f.degree) * _linalg.det(_dlog(fx, h, grad))
        if lhs != rhs:
            raise IdentityViolation(f"{f.name} at {x}: {lhs} != {rhs}")
        done += 1
