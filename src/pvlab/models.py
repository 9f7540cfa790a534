"""Explicit matrix-space instances with closed-form invariants.

Each builder returns a :class:`ModelSpec`: a :class:`~pvlab.pvcore.PVInstance`
whose operators realize the stated Lie algebra action on packed block
coordinates, the model's closed-form invariants (determinants, Pfaffians,
bordered Pfaffians) as exact evaluators with their declared weights, and
the certificate values the model is expected to reproduce.

A builder states its group once, as a factor table: each factor (gl, sl,
so, a scalar or a diagonal torus) with the blocks it moves and the role by
which it moves each.  One reader turns the table into the instance, so the
Lie action is written once per role, not once per model.  Every factor is
connected, so an invariant's character is fixed by its differential, which
is read off the same table.  The instance form is
the direct sum of the factors' defining trace forms (a faithful module of
the product algebra), so reductivity of isotropy subalgebras is again
nondegeneracy of a restriction.

The evaluators run thousands of times per certificate, so each does only
its arithmetic.  A block's coordinates are laid out once; a mat block's
rows are slices of the packed point, and sym and skew blocks are
scattered along those coordinates.  Determinants and Pfaffians expand by
cofactors and by the first row over a tuple of remaining indices on the
one input matrix, copying no minor.  Pf(X^t Y X) forms only the upper
triangle of X^t Y X, which is all the Pfaffian expansion reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

from ._linalg import matmul, transpose
from .pvcore import (WIDE_POINTS, Invariant, PVError, PVInstance, make_instance,
                     q_irreducible, verify_invariant)

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
    """Division-free determinant (cofactor expansion; fine at desk sizes).

    The expansion runs down the rows of ``m`` itself: each minor is named
    by the tuple of its remaining columns, so no submatrix is copied, and a
    zero entry's minor is never expanded.
    """
    return _cofactors(m, tuple(range(len(m))))


def _cofactors(m: Sequence[Sequence], cols: tuple[int, ...]):
    """The minor of m on its last len(cols) rows and the columns cols,
    expanded along its first row."""
    if len(cols) <= 1:
        return m[-1][cols[0]] if cols else 1
    row = m[len(m) - len(cols)]
    total = 0
    for k, j in enumerate(cols):
        v = row[j]
        if v:
            minor = v * _cofactors(m, cols[:k] + cols[k + 1:])
            total = total - minor if k & 1 else total + minor
    return total


def pfaffian(z: Sequence[Sequence]):
    """Pfaffian by first-row expansion; Pf([[0,1],[-1,0]]) = 1.

    The expansion recurses over the tuple of remaining indices on ``z``
    itself, with no submatrix copies.  ``z`` is checked to be skew of even
    size first; the expansion then reads only its entries above the
    diagonal.

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
    return _pf(z, tuple(range(n)))


def _pf(z: Sequence[Sequence], rest: tuple[int, ...]):
    """Pf of z on the ascending indices rest (of even length), expanded
    along the first; only entries above the diagonal are read."""
    if len(rest) == 2:
        return z[rest[0]][rest[1]] or 0  # a zero entry's term is skipped, leaving int 0
    if not rest:
        return 1
    i, tail = rest[0], rest[1:]
    row = z[i]
    total = 0
    for k, j in enumerate(tail):
        v = row[j]
        if v:
            term = v * _pf(z, tail[:k] + tail[k + 1:])
            total = total - term if k & 1 else total + term
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

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """The (row, col) of each packed coordinate, in packing order."""
        if self.kind == "mat":
            return tuple((i, j) for i in range(self.rows) for j in range(self.cols))
        start = 0 if self.kind == "sym" else 1
        return tuple((i, j) for i in range(self.rows) for j in range(i + start, self.rows))

    @cached_property
    def size(self) -> int:
        return len(self.coords)

    def matrix(self, x: Sequence) -> list:
        """The block's matrix at the packed point x.  A mat block's rows are
        slices of x; a sym or skew block is scattered along coords."""
        o = self.offset
        if self.kind == "mat":
            c = self.cols
            return [x[k:k + c] for k in range(o, o + self.size, c)]
        m = [[0] * self.cols for _ in range(self.rows)]
        if self.kind == "sym":
            for v, (i, j) in zip(x[o:o + self.size], self.coords):
                m[i][j] = m[j][i] = v
        else:
            for v, (i, j) in zip(x[o:o + self.size], self.coords):
                m[i][j] = v
                m[j][i] = -v
        return m


def _layout(specs: list[tuple[str, str, int, int]]) -> list[_Block]:
    blocks, offset = [], 0
    for name, kind, rows, cols in specs:
        b = _Block(name, kind, rows, cols, offset)
        blocks.append(b)
        offset += b.size
    return blocks


def _unpack(blocks: list[_Block], x: Sequence) -> dict[str, list]:
    return {b.name: b.matrix(x) for b in blocks}


def _pack(blocks: list[_Block], pt: dict[str, list[list]]) -> list:
    x = []
    for b in blocks:
        m = pt[b.name]
        x.extend(m[i][j] for i, j in b.coords)
    return x


def _operator(blocks: list[_Block], moves: dict, a: list[list]) -> list[tuple]:
    """The nonzero entries ``(row, col, value)`` of the generator a on packed
    coordinates, by rows.  A role maps a block to itself, so each unit matrix
    of a block in ``moves`` is moved by :func:`_lie_move` and read back along
    the block's coords."""
    entries = []
    for b in (b for b in blocks if b.name in moves):
        for k, (i, j) in enumerate(b.coords):
            unit = [[0] * b.cols for _ in range(b.rows)]
            unit[i][j] = 1
            if b.kind != "mat":
                unit[j][i] = -1 if b.kind == "skew" else 1
            y = _lie_move(moves[b.name], a, unit)
            entries += [(b.offset + r, b.offset + k, y[p][q])
                        for r, (p, q) in enumerate(b.coords) if y[p][q]]
    return sorted(entries)


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
# The group column is what each role means; the instance is read from the
# Lie column.  The characters are one per gl or scalar factor (named by its
# key) and one per torus entry (key1, key2, ...); an invariant declares its
# weight as {character: exponent}, so that a group element multiplies it by
# the product of (det g, or the scalar or torus entry) ** exponent.  Every
# factor is connected, so the weight is checked by its differential: the
# exponent on each generator that carries a character (a diagonal unit of
# gl, a torus entry, a scalar), and 0 on every other generator.


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


def _instance(name: str, blocks: list[_Block],
              factors: list[tuple]) -> tuple[PVInstance, list[str | None]]:
    """Operators in table order, the direct sum of the factors' defining
    trace forms, the characters, and one component per block; with each
    generator's character label (None for a generator that carries none)."""
    gens = [(f, a, char) for f, (key, kind, size, _) in enumerate(factors)
            for a, char in _lie_basis(key, kind, size)]

    def trace(a, c):  # tr(ac); the generators are sparse
        return sum(v * c[j][i] for i, row in enumerate(a) for j, v in enumerate(row) if v)

    operators = [_operator(blocks, factors[f][3], a) for f, a, _ in gens]
    form = [[(j, t) for j, (h, c, _) in enumerate(gens) if h == f and (t := trace(a, c))]
            for f, a, _ in gens]
    names = list(dict.fromkeys(char for _, _, char in gens if char))
    characters = [[(j, 1) for j, g in enumerate(gens) if g[2] == name] for name in names]
    components = [tuple(range(b.offset, b.offset + b.size)) for b in blocks]
    return (make_instance(name, operators, sum(b.size for b in blocks), form, characters,
                          components, [b.name for b in blocks]),
            [char for _, _, char in gens])


# ---------------------------------------------------------------------------
# the models


@dataclass(frozen=True)
class ModelInvariant:
    invariant: Invariant
    weight: dict
    differential: tuple[int, ...]  # the weight's exponent on each generator
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


def _spec(model: str, params: dict, blocks: list[_Block], factors: list[tuple],
          invariants, expected: dict) -> ModelSpec:
    """A model from its factor table, named ``model(k=v,...)`` from its id
    and params; the name seeds its draws.  Each invariant is given as
    (Invariant, weight, expect_nondegenerate); a weight may name only the
    table's characters."""
    name = f"{model}({','.join(f'{k}={v}' for k, v in params.items())})"
    instance, labels = _instance(name, blocks, factors)
    unknown = {char for _, weight, _ in invariants for char in weight} - set(labels)
    if unknown:
        raise ValueError(f"{name}: no character named {sorted(unknown)}")
    return ModelSpec(
        name=name,
        params=params,
        instance=instance,
        invariants=tuple(
            ModelInvariant(inv, weight, tuple(weight.get(char, 0) for char in labels), nondeg)
            for inv, weight, nondeg in invariants),
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

    return _spec("dual-pair", {"n": n}, blocks, factors,
                 [(Invariant("Q", 2, q_eval), {"x": 1, "y": -1}, True)],
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

    return _spec("sym-vector", {"n": n}, blocks, factors,
                 [(Invariant("det(S)", n, det_s), {"g": 2}, False)],
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

    return _spec("descending-chains", {"n": n}, blocks, factors,
                 [(Invariant(f"P[{k}]", 2 * k * (n - k + 1), p_eval(k)), {f"g{k}": -2}, False)
                  for k in range(1, n + 1)],
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
        invariants.append((Invariant("det(YX)", 2 * p, det_yx), {"g1": -1, "g3": 1}, True))
    return _spec("matrix-pair", {"p": p, "q": q, "r": r}, blocks, factors, invariants,
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

    xb, yb = blocks

    def pf_xyx(x):
        # Only the upper triangle of X^t Y X, which is all _pf reads: entry
        # (a, b) is column a of X dotted with Y times column b.
        cols = [x[xb.offset + a:xb.offset + xb.size:p] for a in range(p)]
        y = yb.matrix(x)
        z = [[0] * p for _ in range(p)]
        for b in range(1, p):
            yx = [sum(map(mul, row, cols[b])) for row in y]
            for a in range(b):
                z[a][b] = sum(map(mul, cols[a], yx))
        return _pf(z, tuple(range(p)))

    invariants = []
    if p % 2 == 0:
        invariants.append((Invariant("Pf(XtYX)", 3 * p // 2, pf_xyx), {"g1": -1}, p == r - 1))
    return _spec("skew-pair", {"p": p, "r": r}, blocks, factors, invariants,
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
        invariants.append((Invariant("det(YX)", 4, lambda x: generic_det(yx(x))),
                           {"g1": -1, "d1": 1, "d2": 1}, True))
    elif p == 1:
        invariants += [(Invariant(f"(YX)[{i + 1}]", 2, lambda x, i=i: yx(x)[i][0]),
                        {"g1": -1, f"d{i + 1}": 1}, False)
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
    return _spec("diag-chain", {"p": p, "q": q}, blocks, factors, invariants, expected)


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

    xb, yb = blocks

    def bordered(x):
        # skew of even size by construction, so _pf needs no checks
        xv = x[xb.offset:xb.offset + n]
        z = yb.matrix(x)
        for row, v in zip(z, xv):
            row.append(v)
        z.append([-v for v in xv] + [0])
        return _pf(z, tuple(range(n + 1)))

    return _spec("vector-skew", {"n": n}, blocks, factors,
                 [(Invariant("borderedPf", (n + 1) // 2, bordered), {"g": 1, "a": 1}, True)],
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
        return generic_det([[*pt["X"][i], pt["Y"][i][0]] for i in range(n)])

    return _spec("det-augmented", {"n": n}, blocks, factors,
                 [(Invariant("det[X|Y]", n, det_xy), {"g": 1, "h": -1}, True)],
                 {"regular": True, "n_fundamental_invariants": 1, "q_irreducible": True})


@dataclass(frozen=True)
class ModelCheckLine:
    name: str
    passed: bool
    detail: str


def verify_model(spec: ModelSpec, seed: int = 0) -> tuple[bool, list[ModelCheckLine]]:
    """Recompute a model's certificates and compare against its expected values.

    ``q_irreducible`` is read from :func:`~pvlab.pvcore.q_irreducible` at
    ``seed``, every other expected key from that report's regularity.  An
    invariant passes when :func:`~pvlab.pvcore.verify_invariant` certifies
    it and its constants, the differential of its character, equal the
    differential of its declared weight."""
    lines: list[ModelCheckLine] = []
    q = q_irreducible(spec.instance, seed)
    for key, want in spec.expected.items():
        got = getattr(q if key == "q_irreducible" else q.regularity, key)
        lines.append(ModelCheckLine(key, got == want, f"expected {want}, got {got}"))
    for mi in spec.invariants:
        f, label = mi.invariant, f"invariant {mi.invariant.name}"
        try:
            rep = verify_invariant(spec.instance, f, seed=seed,
                                   expect_nondegenerate=mi.nondegenerate)
        except PVError as exc:
            lines.append(ModelCheckLine(label, False, str(exc)))
            continue
        weight = " ".join(f"{char}^{e}" for char, e in mi.weight.items())
        wrong = [i for i, (c, e) in enumerate(zip(rep.constants, mi.differential)) if c != e]
        if wrong:
            i = wrong[0]
            detail = (f"{f.name}: the derivative along operator {i} is {rep.constants[i]} f, "
                      f"but weight {weight} asks for {mi.differential[i]} f")
        else:
            bits = (rep.error_bound.denominator // rep.error_bound.numerator).bit_length() - 1
            detail = f"{1 + WIDE_POINTS} points, error <= 2^-{bits}, weight {weight}"
        lines.append(ModelCheckLine(label, not wrong, detail))
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
