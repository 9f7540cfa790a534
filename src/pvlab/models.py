"""Explicit matrix-space instances with closed-form invariants.

Each builder returns a :class:`ModelSpec`: a :class:`~pvlab.pvcore.PVInstance`
whose operators realize the stated Lie algebra action on packed block
coordinates, the model's closed-form invariants (determinants, Pfaffians,
bordered Pfaffians) as exact evaluators, samplers of honest group elements
with their predicted multipliers, and the certificate values the model is
expected to reproduce.

The instance form is the direct sum of the factors' defining trace forms
(a faithful module of the product algebra), so reductivity of isotropy
subalgebras is again nondegeneracy of a restriction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from ._linalg import _echelon, matmul, transpose
from ._rand import Stream
from .pvcore import GroupCheck, Invariant, PVInstance, make_instance

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


def _gl_basis(m: int) -> list[tuple[list[list], bool]]:
    """(matrix, is_diagonal) for the elementary-matrix basis of gl(m)."""
    out = []
    for a in range(m):
        for b in range(m):
            e = [[1 if (i, j) == (a, b) else 0 for j in range(m)] for i in range(m)]
            out.append((e, a == b))
    return out


def _sl_basis(m: int) -> list[list[list]]:
    out = [e for e, diag in _gl_basis(m) if not diag]
    for a in range(m - 1):
        e = [[0] * m for _ in range(m)]
        e[a][a] = 1
        e[a + 1][a + 1] = -1
        out.append(e)
    return out


def _so_basis(m: int) -> list[list[list]]:
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            e = [[0] * m for _ in range(m)]
            e[a][b] = 1
            e[b][a] = -1
            out.append(e)
    return out


class _ModelBuilder:
    """Accumulates generators, character rows, and block bookkeeping."""

    def __init__(self, name: str, blocks: list[_Block]) -> None:
        self.name = name
        self.blocks = blocks
        self.dim_v = sum(b.size for b in blocks)
        self.operators: list[list[list]] = []
        self._factors: list[tuple[str, list[list]]] = []
        self._char_rows: dict[str, list[int]] = {}

    def add_generator(self, act: Callable[[dict], dict], char_keys: Sequence[str] = (),
                      *, factor: str, gmat: list[list] | None = None) -> None:
        idx = len(self.operators)
        self.operators.append(_operator(self.blocks, act))
        self._factors.append((factor, gmat if gmat is not None else [[1]]))
        for key in char_keys:
            self._char_rows.setdefault(key, []).append(idx)

    def add_gl_factor(self, key: str, m: int, act_of) -> None:
        """gl(m) generators; diagonal ones contribute to the factor's trace character."""
        for e, diag in _gl_basis(m):
            self.add_generator(act_of(e), (key,) if diag else (), factor=key, gmat=e)

    def add_sl_factor(self, key: str, m: int, act_of) -> None:
        for e in _sl_basis(m):
            self.add_generator(act_of(e), factor=key, gmat=e)

    def add_so_factor(self, key: str, m: int, act_of) -> None:
        for e in _so_basis(m):
            self.add_generator(act_of(e), factor=key, gmat=e)

    def _form(self) -> list[list]:
        """Direct sum of the factors' defining trace forms.

        This is the trace form of a faithful module of the product algebra,
        so its restrictions certify reductivity of subalgebras.
        """
        g = len(self.operators)
        form = [[0] * g for _ in range(g)]
        for i in range(g):
            fi, mi = self._factors[i]
            for j in range(i, g):
                fj, mj = self._factors[j]
                if fi != fj:
                    continue
                n = len(mi)
                tr = sum(mi[a][b] * mj[b][a] for a in range(n) for b in range(n)
                         if mi[a][b] and mj[b][a])
                form[i][j] = form[j][i] = tr
        return form

    def instance(self) -> PVInstance:
        characters = []
        for key in self._char_rows:
            row = [0] * len(self.operators)
            for idx in self._char_rows[key]:
                row[idx] = 1
            characters.append(row)
        components, labels = [], []
        for b in self.blocks:
            components.append(tuple(range(b.offset, b.offset + b.size)))
            labels.append(b.name)
        return make_instance(self.name, self.operators, self.dim_v,
                             self._form(), characters, components, labels)


# ---------------------------------------------------------------------------
# small exact matrix utilities for the samplers


def _mm(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = matmul(out, m)
    return out


def _inv(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse from one Gauss-Jordan pass on [m | I]: the reduced
    form is d * [I | m^-1], so the inverse is the right half over d."""
    n = len(m)
    red, pivots, d, _, _ = _echelon(
        [list(row) + [int(r == k) for k in range(n)] for r, row in enumerate(m)], True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(v, d) for v in row[n:]] for row in red]


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
    eye = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    a = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    b = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    return matmul(a, _inv(b))


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


def dual_pair(n: int) -> ModelSpec:
    """Scalars on both sides of a traceless action on two copies of C^n.

    Pairing invariant Q(v, w) = v . w; regular with a single fundamental
    invariant; isotropy dimension (n-1)^2; neither summand regular alone.
    """
    if n < 2:
        raise ValueError("dual_pair needs n >= 2")
    name = f"dual-pair(n={n})"
    blocks = _layout([("v", "mat", n, 1), ("w", "mat", n, 1)])
    bld = _ModelBuilder(name, blocks)

    bld.add_generator(lambda pt: {"v": pt["v"], "w": [[0] for _ in range(n)]}, ("x",),
                      factor="x")

    def act_sl(a):
        at = transpose(a)
        return lambda pt: {"v": [[-r[0]] for r in matmul(at, pt["v"])],
                           "w": matmul(a, pt["w"])}

    bld.add_sl_factor("g", n, act_sl)
    bld.add_generator(lambda pt: {"v": [[0] for _ in range(n)],
                                  "w": [[-r[0]] for r in pt["w"]]}, ("y",),
                      factor="y")
    inst = bld.instance()

    def q_eval(x):
        pt = _unpack(blocks, x)
        return sum(pt["v"][i][0] * pt["w"][i][0] for i in range(n))

    def sample(stream: Stream):
        a = Fraction(stream.nonzero(-4, 4))
        b = Fraction(stream.nonzero(-4, 4))
        g = _sample_sl(stream, n)
        gti = transpose(_inv(g))
        mat = _operator(blocks, lambda pt: {
            "v": [[a * r[0]] for r in matmul(gti, pt["v"])],
            "w": [[r[0] / b] for r in matmul(g, pt["w"])],
        })
        return mat, a / b

    q = Invariant("Q", 2, q_eval)
    return ModelSpec(
        name=name,
        params={"n": n},
        instance=inst,
        invariants=(ModelInvariant(q, (GroupCheck("factors", sample),), True),),
        expected={"regular": True, "isotropy_dim": (n - 1) ** 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True},
        blocks=tuple(blocks),
    )


def sym_vector(n: int) -> ModelSpec:
    """Symmetric matrices plus a vector under congruence and dual scaling.

    Regular; generic isotropy of dimension (n-1)(n-2)/2; the vector summand
    alone is not regular, so the space is not completely Q-reducible.
    """
    if n < 2:
        raise ValueError("sym_vector needs n >= 2")
    name = f"sym-vector(n={n})"
    blocks = _layout([("S", "sym", n, n), ("v", "mat", n, 1)])
    bld = _ModelBuilder(name, blocks)

    def act_of(a):
        at = transpose(a)

        def act(pt):
            s = pt["S"]
            return {"S": [[sum(a[i][k] * s[k][j] + s[i][k] * a[j][k] for k in range(n))
                           for j in range(n)] for i in range(n)],
                    "v": [[-r[0]] for r in matmul(at, pt["v"])]}
        return act

    bld.add_gl_factor("g", n, act_of)
    bld.add_generator(lambda pt: {"S": [[0] * n for _ in range(n)], "v": pt["v"]}, ("a",),
                      factor="a")
    inst = bld.instance()

    def det_s(x):
        return generic_det(_unpack(blocks, x)["S"])

    def sample(stream: Stream):
        g, dg = _sample_gl(stream, n)
        gt = transpose(g)
        gti = transpose(_inv(g))
        a = Fraction(stream.nonzero(-4, 4))
        mat = _operator(blocks, lambda pt: {
            "S": _mm(g, pt["S"], gt),
            "v": [[a * r[0]] for r in matmul(gti, pt["v"])],
        })
        return mat, Fraction(dg) ** 2

    inv = Invariant("det(S)", n, det_s)
    return ModelSpec(
        name=name,
        params={"n": n},
        instance=inst,
        invariants=(ModelInvariant(inv, (GroupCheck("factors", sample),), False),),
        expected={"regular": True, "isotropy_dim": (n - 1) * (n - 2) // 2,
                  "n_fundamental_invariants": 2},
        blocks=tuple(blocks),
    )


def descending_chains(n: int) -> ModelSpec:
    """A chain of rectangular blocks between an orthogonal top and scalars.

    Invariants P_k = det of the k x k Gram-style product of the tail of the
    chain; the filtration peels the largest block first.
    """
    if not 1 <= n <= 3:
        raise ValueError("descending_chains needs 1 <= n <= 3")
    name = f"descending-chains(n={n})"
    blocks = _layout([(f"V[{m}]", "mat", m + 1, m) for m in range(n, 0, -1)])
    bld = _ModelBuilder(name, blocks)

    def act_top(a):
        def act(pt):
            out = {b.name: [[0] * b.cols for _ in range(b.rows)] for b in blocks}
            out[f"V[{n}]"] = matmul(a, pt[f"V[{n}]"])
            return out
        return act

    bld.add_so_factor("so", n + 1, act_top)
    for m in range(n, 0, -1):
        def act_of(a, m=m):
            def act(pt):
                out = {}
                for b in blocks:
                    out[b.name] = [[0] * b.cols for _ in range(b.rows)]
                xm = pt[f"V[{m}]"]
                out[f"V[{m}]"] = [[-v for v in row] for row in matmul(xm, a)]
                if m - 1 >= 1:
                    out[f"V[{m-1}]"] = matmul(a, pt[f"V[{m-1}]"])
                return out
            return act
        bld.add_gl_factor(f"g{m}", m, act_of)
    inst = bld.instance()

    def p_eval(k):
        def ev(x):
            pt = _unpack(blocks, x)
            prod = pt[f"V[{n}]"]
            for m in range(n - 1, k - 1, -1):
                prod = matmul(prod, pt[f"V[{m}]"])
            return generic_det(matmul(transpose(prod), prod))
        return ev

    def sample_for(k):
        def sample(stream: Stream):
            r = _sample_so(stream, n + 1)
            gs = {}
            dets = {}
            for m in range(n, 0, -1):
                gs[m], dets[m] = _sample_gl(stream, m)
            invs = {m: _inv(gs[m]) for m in gs}

            def act(pt):
                out = {}
                for m in range(n, 0, -1):
                    left = r if m == n else gs[m + 1]
                    out[f"V[{m}]"] = _mm(left, pt[f"V[{m}]"], invs[m])
                return out
            return _operator(blocks, act), Fraction(1, dets[k] ** 2)
        return sample

    invariants = tuple(
        ModelInvariant(Invariant(f"P[{k}]", 2 * k * (n - k + 1), p_eval(k)),
                       (GroupCheck(f"factors-P{k}", sample_for(k)),),
                       False)
        for k in range(1, n + 1)
    )
    return ModelSpec(
        name=name,
        params={"n": n},
        instance=inst,
        invariants=invariants,
        expected={"regular": True, "isotropy_dim": 0,
                  "n_fundamental_invariants": n},
        blocks=tuple(blocks),
    )


def matrix_pair(p: int, q: int, r: int) -> ModelSpec:
    """Two rectangular blocks sharing the middle factor of three general groups.

    Regular exactly when p = r, with det(YX) as the fundamental invariant.
    """
    if not (p < q and r < q):
        raise ValueError("matrix_pair needs p < q and r < q")
    name = f"matrix-pair(p={p},q={q},r={r})"
    blocks = _layout([("X", "mat", q, p), ("Y", "mat", r, q)])
    bld = _ModelBuilder(name, blocks)

    zx = lambda: [[0] * p for _ in range(q)]  # noqa: E731
    zy = lambda: [[0] * q for _ in range(r)]  # noqa: E731
    bld.add_gl_factor("g1", p, lambda a: lambda pt: {
        "X": [[-v for v in row] for row in matmul(pt["X"], a)], "Y": zy()})
    bld.add_gl_factor("g2", q, lambda a: lambda pt: {
        "X": matmul(a, pt["X"]),
        "Y": [[-v for v in row] for row in matmul(pt["Y"], a)]})
    bld.add_gl_factor("g3", r, lambda a: lambda pt: {"X": zx(), "Y": matmul(a, pt["Y"])})
    inst = bld.instance()

    invariants = ()
    if p == r:
        def det_yx(x):
            pt = _unpack(blocks, x)
            return generic_det(matmul(pt["Y"], pt["X"]))

        def sample(stream: Stream):
            g1, d1 = _sample_gl(stream, p)
            g2, _ = _sample_gl(stream, q)
            g3, d3 = _sample_gl(stream, r)
            i1, i2 = _inv(g1), _inv(g2)
            mat = _operator(blocks, lambda pt: {
                "X": _mm(g2, pt["X"], i1), "Y": _mm(g3, pt["Y"], i2)})
            return mat, Fraction(d3, d1)

        invariants = (ModelInvariant(Invariant("det(YX)", 2 * p, det_yx),
                                     (GroupCheck("factors", sample),), True),)
    return ModelSpec(
        name=name,
        params={"p": p, "q": q, "r": r},
        instance=inst,
        invariants=invariants,
        expected={"regular": p == r,
                  **({"n_fundamental_invariants": 1, "q_irreducible": True} if p == r else {})},
        blocks=tuple(blocks),
    )


def skew_pair(p: int, r: int) -> ModelSpec:
    """A rectangular block and a skew form sharing an odd factor.

    Regular exactly when p = r - 1; Pf of the compressed form X^t Y X is a
    relative invariant whenever p is even.
    """
    if r % 2 == 0 or r < 3 or not 1 <= p <= r - 1:
        raise ValueError("skew_pair needs odd r >= 3 and 1 <= p <= r-1")
    name = f"skew-pair(p={p},r={r})"
    blocks = _layout([("X", "mat", r, p), ("Y", "skew", r, r)])
    bld = _ModelBuilder(name, blocks)

    bld.add_gl_factor("g1", p, lambda a: lambda pt: {
        "X": [[-v for v in row] for row in matmul(pt["X"], a)],
        "Y": [[0] * r for _ in range(r)]})

    def act_g2(a):
        at = transpose(a)

        def act(pt):
            y = pt["Y"]
            return {"X": [[-v for v in row] for row in matmul(at, pt["X"])],
                    "Y": [[sum(a[i][k] * y[k][j] + y[i][k] * a[j][k] for k in range(r))
                           for j in range(r)] for i in range(r)]}
        return act

    bld.add_gl_factor("g2", r, act_g2)
    inst = bld.instance()

    invariants = ()
    if p % 2 == 0:
        def pf_xyx(x):
            pt = _unpack(blocks, x)
            return pfaffian(_mm(transpose(pt["X"]), pt["Y"], pt["X"]))

        def sample(stream: Stream):
            g1, d1 = _sample_gl(stream, p)
            g2, _ = _sample_gl(stream, r)
            i1 = _inv(g1)
            g2ti = transpose(_inv(g2))
            g2t = transpose(g2)
            mat = _operator(blocks, lambda pt: {
                "X": _mm(g2ti, pt["X"], i1), "Y": _mm(g2, pt["Y"], g2t)})
            return mat, Fraction(1, d1)

        invariants = (ModelInvariant(Invariant("Pf(XtYX)", 3 * p // 2, pf_xyx),
                                     (GroupCheck("factors", sample),), p == r - 1),)
    return ModelSpec(
        name=name,
        params={"p": p, "r": r},
        instance=inst,
        invariants=invariants,
        expected={"regular": p == r - 1,
                  **({"n_fundamental_invariants": 1, "q_irreducible": True}
                     if p == r - 1 else {})},
        blocks=tuple(blocks),
    )


def diag_chain(p: int, q: int) -> ModelSpec:
    """Rectangular blocks under a general factor, a traceless middle, and a torus.

    Regular exactly when p = 2; at p = 1 the two entries of YX are
    independent relative invariants even though the space is not regular.
    """
    if not q > p >= 1:
        raise ValueError("diag_chain needs q > p >= 1")
    name = f"diag-chain(p={p},q={q})"
    blocks = _layout([("X", "mat", q, p), ("Y", "mat", 2, q)])
    bld = _ModelBuilder(name, blocks)

    bld.add_gl_factor("g1", p, lambda a: lambda pt: {
        "X": [[-v for v in row] for row in matmul(pt["X"], a)],
        "Y": [[0] * q for _ in range(2)]})
    bld.add_sl_factor("g2", q, lambda a: lambda pt: {
        "X": matmul(a, pt["X"]),
        "Y": [[-v for v in row] for row in matmul(pt["Y"], a)]})
    for which in range(2):
        e = [[1 if i == j == which else 0 for j in range(2)] for i in range(2)]
        bld.add_generator(lambda pt, e=e: {"X": [[0] * p for _ in range(q)],
                                           "Y": matmul(e, pt["Y"])},
                          (f"d{which + 1}",), factor="d", gmat=e)
    inst = bld.instance()

    def sampler(mult_of):
        def sample(stream: Stream):
            g1, d1 = _sample_gl(stream, p)
            g2 = _sample_sl(stream, q)
            d = [Fraction(stream.nonzero(-4, 4)) for _ in range(2)]
            i1, i2 = _inv(g1), _inv(g2)
            g3 = [[d[0], 0], [0, d[1]]]
            mat = _operator(blocks, lambda pt: {
                "X": _mm(g2, pt["X"], i1), "Y": _mm(g3, pt["Y"], i2)})
            return mat, mult_of(d, d1)
        return sample

    invariants = ()
    if p == 2:
        def det_yx(x):
            pt = _unpack(blocks, x)
            return generic_det(matmul(pt["Y"], pt["X"]))

        invariants = (ModelInvariant(
            Invariant("det(YX)", 4, det_yx),
            (GroupCheck("factors", sampler(lambda d, d1: d[0] * d[1] / d1)),), True),)
    elif p == 1:
        def entry(i):
            def ev(x):
                pt = _unpack(blocks, x)
                return matmul(pt["Y"], pt["X"])[i][0]
            return ev

        invariants = tuple(
            ModelInvariant(Invariant(f"(YX)[{i + 1}]", 2, entry(i)),
                           (GroupCheck(f"factors-{i + 1}",
                                       sampler(lambda d, d1, i=i: d[i] / d1)),), False)
            for i in range(2))
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
    return ModelSpec(
        name=name,
        params={"p": p, "q": q},
        instance=inst,
        invariants=invariants,
        expected=expected,
        blocks=tuple(blocks),
    )


def vector_skew(n: int) -> ModelSpec:
    """A vector and a skew form under one general factor and a scalar.

    The bordered Pfaffian Pf([[Y, X], [-X^t, 0]]) is the fundamental
    invariant; regular with isotropy dimension (n^2 - n + 2) / 2.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("vector_skew needs odd n >= 3")
    name = f"vector-skew(n={n})"
    blocks = _layout([("X", "mat", n, 1), ("Y", "skew", n, n)])
    bld = _ModelBuilder(name, blocks)

    def act_of(a):
        def act(pt):
            y = pt["Y"]
            return {"X": matmul(a, pt["X"]),
                    "Y": [[sum(a[i][k] * y[k][j] + y[i][k] * a[j][k] for k in range(n))
                           for j in range(n)] for i in range(n)]}
        return act

    bld.add_gl_factor("g", n, act_of)
    bld.add_generator(lambda pt: {"X": pt["X"], "Y": [[0] * n for _ in range(n)]}, ("a",),
                      factor="a")
    inst = bld.instance()

    def bordered(x):
        pt = _unpack(blocks, x)
        xv, y = pt["X"], pt["Y"]
        z = [[y[i][j] for j in range(n)] + [xv[i][0]] for i in range(n)]
        z.append([-xv[j][0] for j in range(n)] + [0])
        return pfaffian(z)

    def sample(stream: Stream):
        g, dg = _sample_gl(stream, n)
        gt = transpose(g)
        a = Fraction(stream.nonzero(-4, 4))
        mat = _operator(blocks, lambda pt: {
            "X": [[a * r[0]] for r in matmul(g, pt["X"])],
            "Y": _mm(g, pt["Y"], gt)})
        return mat, a * dg

    inv = Invariant("borderedPf", (n + 1) // 2, bordered)
    return ModelSpec(
        name=name,
        params={"n": n},
        instance=inst,
        invariants=(ModelInvariant(inv, (GroupCheck("factors", sample),), True),),
        expected={"regular": True, "isotropy_dim": (n * n - n + 2) // 2,
                  "n_fundamental_invariants": 1, "q_irreducible": True},
        blocks=tuple(blocks),
    )


def det_augmented(n: int) -> ModelSpec:
    """An almost-square block augmented by a vector column.

    det[X | Y] is the fundamental invariant; regular with a single invariant.
    """
    if n < 2:
        raise ValueError("det_augmented needs n >= 2")
    name = f"det-augmented(n={n})"
    blocks = _layout([("X", "mat", n, n - 1), ("Y", "mat", n, 1)])
    bld = _ModelBuilder(name, blocks)

    bld.add_gl_factor("g", n, lambda a: lambda pt: {
        "X": matmul(a, pt["X"]), "Y": matmul(a, pt["Y"])})
    bld.add_gl_factor("h", n - 1, lambda a: lambda pt: {
        "X": [[-v for v in row] for row in matmul(pt["X"], a)],
        "Y": [[0] for _ in range(n)]})
    inst = bld.instance()

    def det_xy(x):
        pt = _unpack(blocks, x)
        return generic_det([pt["X"][i] + [pt["Y"][i][0]] for i in range(n)])

    def sample(stream: Stream):
        g, dg = _sample_gl(stream, n)
        h, dh = _sample_gl(stream, n - 1)
        ih = _inv(h)
        mat = _operator(blocks, lambda pt: {
            "X": _mm(g, pt["X"], ih), "Y": matmul(g, pt["Y"])})
        return mat, Fraction(dg, dh)

    inv = Invariant("det[X|Y]", n, det_xy)
    return ModelSpec(
        name=name,
        params={"n": n},
        instance=inst,
        invariants=(ModelInvariant(inv, (GroupCheck("factors", sample),), True),),
        expected={"regular": True, "n_fundamental_invariants": 1, "q_irreducible": True},
        blocks=tuple(blocks),
    )


@dataclass(frozen=True)
class ModelCheckLine:
    name: str
    passed: bool
    detail: str


def verify_model(spec: ModelSpec, seed: int = 0) -> tuple[bool, list[ModelCheckLine]]:
    """Recompute a model's certificates and compare against its expected values."""
    from .pvcore import PVError, SubsetLattice, verify_invariant

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
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"parameter {key} needs an integer, got {value!r}") from None
    missing = [k for k in param_names if k not in params]
    if missing:
        raise ValueError(f"{name} needs parameters {missing}")
    return builder(**params)
