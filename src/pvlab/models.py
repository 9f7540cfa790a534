"""Explicit matrix-space instances with closed-form invariants.

Each builder returns a :class:`ModelSpec`: a :class:`~pvlab.pvcore.PVInstance`
whose operators realize the stated Lie algebra action on packed block
coordinates, the model's closed-form invariants (determinants, Pfaffians,
bordered Pfaffians) as exact evaluators, samplers of honest group elements
with their predicted multipliers, and the certificate values the model is
expected to reproduce.

A builder states its group once, as a factor table: each factor (gl, sl,
so, a scalar or a diagonal torus) with the blocks it moves and the role by
which it moves each.  One reader turns the table into the instance and one
sampler turns it into group elements, so the Lie action and the group
action are written once per role, not once per model.  The instance form is
the direct sum of the factors' defining trace forms (a faithful module of
the product algebra), so reductivity of isotropy subalgebras is again
nondegeneracy of a restriction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from ._linalg import inverse, matmul, transpose
from ._rand import Stream
from .pvcore import (GroupCheck, Invariant, PVError, PVInstance, SubsetLattice, make_instance,
                     verify_invariant)

__all__ = [
    "ModelSpec", "ModelInvariant", "ModelCheckLine", "pfaffian", "NotSkew",
    "OddSize", "dual_pair", "sym_vector", "descending_chains", "matrix_pair",
    "skew_pair", "diag_chain", "vector_skew", "det_augmented",
    "MODELS", "build_model", "verify_model", "generic_det",
]


class NotSkew(ValueError):
    pass


class OddSize(ValueError):
    pass


def generic_det(m: Sequence[Sequence]):
    """Division-free determinant (cofactor expansion; fine at desk sizes)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        v = m[0][j]
        if v == 0:
            continue
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * v * generic_det(sub)
    return total


def pfaffian(z: Sequence[Sequence]):
    """Pfaffian by first-row expansion; Pf([[0,1],[-1,0]]) = 1.

    Examples
    ========
    >>> pfaffian([[0, 5], [-5, 0]])
    5
    """
    n = len(z)
    if n % 2:
        raise OddSize(f"Pfaffian needs even size, got {n}")
    for i in range(n):
        if z[i][i] != 0:
            raise NotSkew(f"nonzero diagonal entry at {i}")
        for j in range(i):
            if z[i][j] != -z[j][i]:
                raise NotSkew(f"entries ({i},{j}) and ({j},{i}) are not opposite")
    return _pf([list(row) for row in z])


def _pf(z: list[list]):
    n = len(z)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        v = z[0][j]
        if v == 0:
            continue
        keep = [k for k in range(1, n) if k != j]
        sub = [[z[a][b] for b in keep] for a in keep]
        total += (-1) ** (j - 1) * v * _pf(sub)
    return total


# ---------------------------------------------------------------------------
# packed block coordinates


@dataclass(frozen=True)
class _Block:
    name: str
    kind: str  # "mat" | "sym" | "skew"
    rows: int
    cols: int
    offset: int

    @property
    def coords(self) -> list[tuple[int, int]]:
        if self.kind == "mat":
            return [(i, j) for i in range(self.rows) for j in range(self.cols)]
        if self.kind == "sym":
            return [(i, j) for i in range(self.rows) for j in range(i, self.rows)]
        return [(i, j) for i in range(self.rows) for j in range(i + 1, self.rows)]

    @property
    def size(self) -> int:
        return len(self.coords)


def _layout(specs: list[tuple[str, str, int, int]]) -> list[_Block]:
    blocks, offset = [], 0
    for name, kind, rows, cols in specs:
        b = _Block(name, kind, rows, cols, offset)
        blocks.append(b)
        offset += b.size
    return blocks


def _unpack(blocks: list[_Block], x: Sequence) -> dict[str, list[list]]:
    out = {}
    for b in blocks:
        m = [[0] * b.cols for _ in range(b.rows)]
        for k, (i, j) in enumerate(b.coords):
            v = x[b.offset + k]
            m[i][j] = v
            if b.kind == "sym" and i != j:
                m[j][i] = v
            elif b.kind == "skew":
                m[j][i] = -v
        out[b.name] = m
    return out


def _pack(blocks: list[_Block], pt: dict[str, list[list]]) -> list:
    x = []
    for b in blocks:
        m = pt[b.name]
        x.extend(m[i][j] for i, j in b.coords)
    return x


def _operator(blocks: list[_Block], act: Callable[[dict], dict]) -> list[list]:
    dim = sum(b.size for b in blocks)
    cols = []
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        cols.append(_pack(blocks, act(_unpack(blocks, e))))
    return [[cols[c][r] for c in range(dim)] for r in range(dim)]


# ---------------------------------------------------------------------------
# group elements for the samplers


def _sample_unit_triangular(stream: Stream, n: int, lower: bool) -> list[list]:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                m[i][j] = stream.randint(-2, 2)
    return m


def _sample_gl(stream: Stream, n: int) -> tuple[list[list], int]:
    """Invertible integer matrix as L*U, with its exact determinant."""
    low = _sample_unit_triangular(stream, n, lower=True)
    up = _sample_unit_triangular(stream, n, lower=False)
    d = 1
    for i in range(n):
        up[i][i] = stream.choice([1, 2, -1, -2])
        d *= up[i][i]
    return matmul(low, up), d


def _sample_sl(stream: Stream, n: int) -> list[list]:
    return matmul(_sample_unit_triangular(stream, n, lower=True),
                  _sample_unit_triangular(stream, n, lower=False))


def _sample_so(stream: Stream, n: int) -> list[list[Fraction]]:
    """Cayley transform of a skew integer matrix: exactly orthogonal."""
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = stream.randint(-2, 2)
            s[j][i] = -s[i][j]
    a = [[int(i == j) - s[i][j] for j in range(n)] for i in range(n)]
    b = [[int(i == j) + s[i][j] for j in range(n)] for i in range(n)]
    return matmul(a, inverse(b))


# ---------------------------------------------------------------------------
# factor tables
#
# A model states its group once, as a table of factors
# (key, kind, size, moves).  The kind is "gl", "sl", "so", "torus" (the
# diagonal of GL_size) or "scalar" (size 1), and moves maps each block the
# factor acts on to a role:
#
#   role     group            Lie
#   left     X -> g X         a X
#   dual     X -> g^-t X      -a^t X
#   right    X -> X g^-1      -X a
#   cong     S -> g S g^t     a S + S a^t
#   e (int)  X -> t^e X       e X        (scalar factors only)
#
# The instance is read from the Lie meanings and the group samplers from
# the group meanings, so the group checks test the operators role by role.
# The characters are one per gl or scalar factor (named by its key) and
# one per torus entry (key1, key2, ...); an invariant declares its weight
# as {character: exponent}, and a group element multiplies it by the
# product of (det g, or the scalar or torus entry) ** exponent.


def _lie_basis(key: str, kind: str, size: int) -> list[tuple[list[list], str | None]]:
    """The factor's generators in instance order, each with its character."""
    def mat(entries):
        return [[entries.get((i, j), 0) for j in range(size)] for i in range(size)]

    r = range(size)
    if kind == "gl":
        return [(mat({(a, b): 1}), key if a == b else None) for a in r for b in r]
    if kind == "sl":
        return ([(mat({(a, b): 1}), None) for a in r for b in r if a != b]
                + [(mat({(a, a): 1, (a + 1, a + 1): -1}), None) for a in range(size - 1)])
    if kind == "so":
        return [(mat({(a, b): 1, (b, a): -1}), None) for a in r for b in r if a < b]
    if kind == "torus":
        return [(mat({(a, a): 1}), f"{key}{a + 1}") for a in r]
    return [([[1]], key)]


def _lie_move(role, a: list[list], x: list[list]) -> list[list]:
    """The Lie meaning of a role: the generator a acting on a block x."""
    if role == "left":
        return matmul(a, x)
    if role == "dual":
        return [[-v for v in row] for row in matmul(transpose(a), x)]
    if role == "right":
        return [[-v for v in row] for row in matmul(x, a)]
    if role == "cong":  # in one pass: two matmuls slow the model builds by about a quarter
        n = len(x)
        return [[sum(a[i][k] * x[k][j] + x[i][k] * a[j][k] for k in range(n))
                 for j in range(n)] for i in range(n)]
    return [[role * v for v in row] for row in x]  # a scalar's generator is 1


def _group_move(role, g) -> Callable[[list[list]], list[list]]:
    """The group meaning of a role: the element g acting on a block."""
    if role == "left":
        return lambda x: matmul(g, x)
    if role == "dual":
        gti = transpose(inverse(g))
        return lambda x: matmul(gti, x)
    if role == "right":
        gi = inverse(g)
        return lambda x: matmul(x, gi)
    if role == "cong":
        gt = transpose(g)
        return lambda x: matmul(matmul(g, x), gt)
    t = g ** role
    return lambda x: [[t * v for v in row] for row in x]


def _draw(stream: Stream, key: str, kind: str, size: int) -> tuple[object, dict]:
    """A group element of one factor, with its character values."""
    if kind == "gl":
        g, d = _sample_gl(stream, size)
        return g, {key: d}
    if kind == "sl":
        return _sample_sl(stream, size), {}
    if kind == "so":
        return _sample_so(stream, size), {}
    t = [Fraction(stream.nonzero(-4, 4)) for _ in range(size)]
    if kind == "torus":
        return ([[t[i] if i == j else 0 for j in range(size)] for i in range(size)],
                {f"{key}{i + 1}": t[i] for i in range(size)})
    return t[0], {key: t[0]}


def _instance(name: str, blocks: list[_Block], factors: list[tuple]) -> PVInstance:
    """Operators in table order, the direct sum of the factors' defining
    trace forms, the characters, and one component per block."""
    gens = [(f, a, char) for f, (key, kind, size, _) in enumerate(factors)
            for a, char in _lie_basis(key, kind, size)]

    def act_of(moves, a):
        return lambda pt: {b.name: _lie_move(moves[b.name], a, pt[b.name]) if b.name in moves
                           else [[0] * b.cols for _ in range(b.rows)] for b in blocks}

    def trace(a, c):  # tr(ac); the generators are sparse
        return sum(v * c[j][i] for i, row in enumerate(a) for j, v in enumerate(row) if v)

    operators = [_operator(blocks, act_of(factors[f][3], a)) for f, a, _ in gens]
    form = [[trace(a, c) if f == h else 0 for h, c, _ in gens] for f, a, _ in gens]
    names = list(dict.fromkeys(char for _, _, char in gens if char))
    characters = [[int(char == name) for _, _, char in gens] for name in names]
    components = [tuple(range(b.offset, b.offset + b.size)) for b in blocks]
    return make_instance(name, operators, sum(b.size for b in blocks), form, characters,
                         components, [b.name for b in blocks])


def _sampler(blocks: list[_Block], factors: list[tuple], weight: dict) -> Callable:
    """Draws one element per factor, in table order; returns its action on
    packed coordinates and the weight's predicted multiplier."""
    def sample(stream: Stream):
        values, moves = {}, {b.name: [] for b in blocks}
        for key, kind, size, roles in factors:
            g, vals = _draw(stream, key, kind, size)
            values.update(vals)
            for name, role in roles.items():
                moves[name].append(_group_move(role, g))

        def act(pt):
            out = {}
            for name, x in pt.items():
                for move in moves[name]:
                    x = move(x)
                out[name] = x
            return out

        multiplier = Fraction(1)
        for char, e in weight.items():
            multiplier *= Fraction(values[char]) ** e
        return (lambda x: _pack(blocks, act(_unpack(blocks, x)))), multiplier
    return sample


# ---------------------------------------------------------------------------
# the models


@dataclass(frozen=True)
class ModelInvariant:
    invariant: Invariant
    group_checks: tuple[GroupCheck, ...]
    nondegenerate: bool


@dataclass(frozen=True)
class ModelSpec:
    name: str
    params: dict
    instance: PVInstance
    invariants: tuple[ModelInvariant, ...]
    expected: dict
    blocks: tuple[_Block, ...]

    def pack(self, point: dict) -> list:
        """Pack named block matrices into a coordinate vector."""
        return _pack(list(self.blocks), point)


def _spec(name: str, params: dict, blocks: list[_Block], factors: list[tuple],
          invariants, expected: dict) -> ModelSpec:
    """A model from its factor table.  Each invariant is given as
    (Invariant, group-check name, weight, expect_nondegenerate)."""
    return ModelSpec(
        name=name,
        params=params,
        instance=_instance(name, blocks, factors),
        invariants=tuple(
            ModelInvariant(inv, (GroupCheck(check, _sampler(blocks, factors, weight)),), nondeg)
            for inv, check, weight, nondeg in invariants),
        expected=expected,
        blocks=tuple(blocks),
    )


def dual_pair(n: int) -> ModelSpec:
    """Scalars on both sides of a traceless action on two copies of C^n.

    Pairing invariant Q(v, w) = v . w; regular with a single fundamental
    invariant; isotropy dimension (n-1)^2; neither summand regular alone.
    """
    if n < 2:
        raise ValueError("dual_pair needs n >= 2")
    blocks = _layout([("v", "mat", n, 1), ("w", "mat", n, 1)])
    factors = [("x", "scalar", 1, {"v": 1}),
               ("g", "sl", n, {"v": "dual", "w": "left"}),
               ("y", "scalar", 1, {"w": -1})]

    def q_eval(x):
        pt = _unpack(blocks, x)
        return sum(pt["v"][i][0] * pt["w"][i][0] for i in range(n))

    return _spec(f"dual-pair(n={n})", {"n": n}, blocks, factors,
                 [(Invariant("Q", 2, q_eval), "factors", {"x": 1, "y": -1}, True)],
                 {"regular": True, "isotropy_dim": (n - 1) ** 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True})


def sym_vector(n: int) -> ModelSpec:
    """Symmetric matrices plus a vector under congruence and dual scaling.

    Regular; generic isotropy of dimension (n-1)(n-2)/2; the vector summand
    alone is not regular, so the space is not completely Q-reducible.
    """
    if n < 2:
        raise ValueError("sym_vector needs n >= 2")
    blocks = _layout([("S", "sym", n, n), ("v", "mat", n, 1)])
    factors = [("g", "gl", n, {"S": "cong", "v": "dual"}),
               ("a", "scalar", 1, {"v": 1})]

    def det_s(x):
        return generic_det(_unpack(blocks, x)["S"])

    return _spec(f"sym-vector(n={n})", {"n": n}, blocks, factors,
                 [(Invariant("det(S)", n, det_s), "factors", {"g": 2}, False)],
                 {"regular": True, "isotropy_dim": (n - 1) * (n - 2) // 2,
                  "n_fundamental_invariants": 2})


def descending_chains(n: int) -> ModelSpec:
    """A chain of rectangular blocks between an orthogonal top and scalars.

    Invariants P_k = det of the k x k Gram-style product of the tail of the
    chain; the filtration peels the largest block first.
    """
    if not 1 <= n <= 3:
        raise ValueError("descending_chains needs 1 <= n <= 3")
    blocks = _layout([(f"V[{m}]", "mat", m + 1, m) for m in range(n, 0, -1)])
    factors = [("so", "so", n + 1, {f"V[{n}]": "left"})]
    for m in range(n, 0, -1):
        moves = {f"V[{m}]": "right"}
        if m > 1:
            moves[f"V[{m - 1}]"] = "left"
        factors.append((f"g{m}", "gl", m, moves))

    def p_eval(k):
        def ev(x):
            pt = _unpack(blocks, x)
            prod = pt[f"V[{n}]"]
            for m in range(n - 1, k - 1, -1):
                prod = matmul(prod, pt[f"V[{m}]"])
            return generic_det(matmul(transpose(prod), prod))
        return ev

    return _spec(f"descending-chains(n={n})", {"n": n}, blocks, factors,
                 [(Invariant(f"P[{k}]", 2 * k * (n - k + 1), p_eval(k)), f"factors-P{k}",
                   {f"g{k}": -2}, False) for k in range(1, n + 1)],
                 {"regular": True, "isotropy_dim": 0, "n_fundamental_invariants": n})


def matrix_pair(p: int, q: int, r: int) -> ModelSpec:
    """Two rectangular blocks sharing the middle factor of three general groups.

    Regular exactly when p = r, with det(YX) as the fundamental invariant.
    """
    if not (p < q and r < q):
        raise ValueError("matrix_pair needs p < q and r < q")
    blocks = _layout([("X", "mat", q, p), ("Y", "mat", r, q)])
    factors = [("g1", "gl", p, {"X": "right"}),
               ("g2", "gl", q, {"X": "left", "Y": "right"}),
               ("g3", "gl", r, {"Y": "left"})]

    def det_yx(x):
        pt = _unpack(blocks, x)
        return generic_det(matmul(pt["Y"], pt["X"]))

    invariants = []
    if p == r:
        invariants.append((Invariant("det(YX)", 2 * p, det_yx), "factors",
                           {"g1": -1, "g3": 1}, True))
    return _spec(f"matrix-pair(p={p},q={q},r={r})", {"p": p, "q": q, "r": r}, blocks,
                 factors, invariants,
                 {"regular": p == r,
                  **({"n_fundamental_invariants": 1, "q_irreducible": True} if p == r else {})})


def skew_pair(p: int, r: int) -> ModelSpec:
    """A rectangular block and a skew form sharing an odd factor.

    Regular exactly when p = r - 1; Pf of the compressed form X^t Y X is a
    relative invariant whenever p is even.
    """
    if r % 2 == 0 or r < 3 or not 1 <= p <= r - 1:
        raise ValueError("skew_pair needs odd r >= 3 and 1 <= p <= r-1")
    blocks = _layout([("X", "mat", r, p), ("Y", "skew", r, r)])
    factors = [("g1", "gl", p, {"X": "right"}),
               ("g2", "gl", r, {"X": "dual", "Y": "cong"})]

    def pf_xyx(x):
        pt = _unpack(blocks, x)
        return pfaffian(matmul(matmul(transpose(pt["X"]), pt["Y"]), pt["X"]))

    invariants = []
    if p % 2 == 0:
        invariants.append((Invariant("Pf(XtYX)", 3 * p // 2, pf_xyx), "factors",
                           {"g1": -1}, p == r - 1))
    return _spec(f"skew-pair(p={p},r={r})", {"p": p, "r": r}, blocks, factors, invariants,
                 {"regular": p == r - 1,
                  **({"n_fundamental_invariants": 1, "q_irreducible": True}
                     if p == r - 1 else {})})


def diag_chain(p: int, q: int) -> ModelSpec:
    """Rectangular blocks under a general factor, a traceless middle, and a torus.

    Regular exactly when p = 2; at p = 1 the two entries of YX are
    independent relative invariants even though the space is not regular.
    """
    if not q > p >= 1:
        raise ValueError("diag_chain needs q > p >= 1")
    blocks = _layout([("X", "mat", q, p), ("Y", "mat", 2, q)])
    factors = [("g1", "gl", p, {"X": "right"}),
               ("g2", "sl", q, {"X": "left", "Y": "right"}),
               ("d", "torus", 2, {"Y": "left"})]

    def yx(x):
        pt = _unpack(blocks, x)
        return matmul(pt["Y"], pt["X"])

    invariants = []
    if p == 2:
        invariants.append((Invariant("det(YX)", 4, lambda x: generic_det(yx(x))), "factors",
                           {"g1": -1, "d1": 1, "d2": 1}, True))
    elif p == 1:
        invariants += [(Invariant(f"(YX)[{i + 1}]", 2, lambda x, i=i: yx(x)[i][0]),
                        f"factors-{i + 1}", {"g1": -1, f"d{i + 1}": 1}, False)
                       for i in range(2)]
    if p == 2:
        expected = {"regular": True, "n_fundamental_invariants": 1, "q_irreducible": True}
    elif (p, q) == (1, 2):
        # Y is square here, det(Y) joins the two entries of YX and the
        # generic isotropy collapses to a finite group.
        expected = {"regular": True, "n_fundamental_invariants": 3, "q_irreducible": False}
    elif p == 1:
        expected = {"regular": False, "n_fundamental_invariants": 2}
    else:
        expected = {"regular": False}
    return _spec(f"diag-chain(p={p},q={q})", {"p": p, "q": q}, blocks, factors, invariants,
                 expected)


def vector_skew(n: int) -> ModelSpec:
    """A vector and a skew form under one general factor and a scalar.

    The bordered Pfaffian Pf([[Y, X], [-X^t, 0]]) is the fundamental
    invariant; regular with isotropy dimension (n^2 - n + 2) / 2.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("vector_skew needs odd n >= 3")
    blocks = _layout([("X", "mat", n, 1), ("Y", "skew", n, n)])
    factors = [("g", "gl", n, {"X": "left", "Y": "cong"}),
               ("a", "scalar", 1, {"X": 1})]

    def bordered(x):
        pt = _unpack(blocks, x)
        xv, y = pt["X"], pt["Y"]
        z = [[y[i][j] for j in range(n)] + [xv[i][0]] for i in range(n)]
        z.append([-xv[j][0] for j in range(n)] + [0])
        return pfaffian(z)

    return _spec(f"vector-skew(n={n})", {"n": n}, blocks, factors,
                 [(Invariant("borderedPf", (n + 1) // 2, bordered), "factors",
                   {"g": 1, "a": 1}, True)],
                 {"regular": True, "isotropy_dim": (n * n - n + 2) // 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True})


def det_augmented(n: int) -> ModelSpec:
    """An almost-square block augmented by a vector column.

    det[X | Y] is the fundamental invariant; regular with a single invariant.
    """
    if n < 2:
        raise ValueError("det_augmented needs n >= 2")
    blocks = _layout([("X", "mat", n, n - 1), ("Y", "mat", n, 1)])
    factors = [("g", "gl", n, {"X": "left", "Y": "left"}),
               ("h", "gl", n - 1, {"X": "right"})]

    def det_xy(x):
        pt = _unpack(blocks, x)
        return generic_det([pt["X"][i] + [pt["Y"][i][0]] for i in range(n)])

    return _spec(f"det-augmented(n={n})", {"n": n}, blocks, factors,
                 [(Invariant("det[X|Y]", n, det_xy), "factors", {"g": 1, "h": -1}, True)],
                 {"regular": True, "n_fundamental_invariants": 1, "q_irreducible": True})


@dataclass(frozen=True)
class ModelCheckLine:
    name: str
    passed: bool
    detail: str


def verify_model(spec: ModelSpec, seed: int = 0) -> tuple[bool, list[ModelCheckLine]]:
    """Recompute a model's certificates and compare against its expected values."""
    lines: list[ModelCheckLine] = []
    lattice = SubsetLattice(spec.instance, seed)
    report = lattice.regular(lattice.full)
    for key, want in spec.expected.items():
        if key == "q_irreducible":
            got = lattice.q_irreducibility().q_irreducible
        else:
            got = getattr(report, key)
        lines.append(ModelCheckLine(key, got == want, f"expected {want}, got {got}"))
    for mi in spec.invariants:
        label = f"invariant {mi.invariant.name}"
        try:
            rep = verify_invariant(spec.instance, mi.invariant, seed=seed,
                                   expect_nondegenerate=mi.nondegenerate,
                                   group_checks=mi.group_checks)
            detail = (f"{rep.points_checked} points, "
                      f"{rep.group_elements_checked} group elements")
            lines.append(ModelCheckLine(label, True, detail))
        except PVError as exc:
            lines.append(ModelCheckLine(label, False, str(exc)))
    return all(line.passed for line in lines), lines


MODELS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "dual-pair": (dual_pair, ("n",)),
    "sym-vector": (sym_vector, ("n",)),
    "descending-chains": (descending_chains, ("n",)),
    "matrix-pair": (matrix_pair, ("p", "q", "r")),
    "skew-pair": (skew_pair, ("p", "r")),
    "diag-chain": (diag_chain, ("p", "q")),
    "vector-skew": (vector_skew, ("n",)),
    "det-augmented": (det_augmented, ("n",)),
}


def build_model(spec_string: str) -> ModelSpec:
    """Build a model from its CLI identifier, e.g. ``matrix-pair:p=2,q=3,r=2``."""
    name, _, args = spec_string.partition(":")
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; known: {', '.join(sorted(MODELS))}")
    builder, param_names = MODELS[name]
    params = {}
    if args:
        for item in args.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in param_names:
                raise ValueError(f"unknown parameter {key!r} for {name} (takes {param_names})")
            if key in params:
                raise ValueError(f"parameter {key} given twice")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"parameter {key} needs an integer, got {value!r}") from None
    missing = [k for k in param_names if k not in params]
    if missing:
        raise ValueError(f"{name} needs parameters {missing}")
    return builder(**params)
