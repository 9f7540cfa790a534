"""The types and the dense instance form behind the digests frozen in tests/data.

An instance stores each operator as its nonzero entries ``(row, col,
value)``, by rows.  The frozen digests were taken over dense operators, so
:func:`dense_repr` rebuilds them.  The tests are the only readers of the
dense form.

It also holds the small helpers that several test modules share: an
identity matrix, a simple root, the Cartan integer of two adjacent nodes
read from their lengths, and the exact isotropy basis at a point.
"""
from __future__ import annotations

import dataclasses

from pvlab import _linalg, pvcore

# Every multi-circle diagram of the tier-1 sweep (A1-7, B2-7, C3-7, D4-7,
# E6) and of the second catalog (rank 8 of A-D, E7, E8, F4, G2), plus the
# few-circle rank 10-14 and E8 diagrams of the benchmark's large workload.
FROZEN_ENUMERATED = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                     + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
                     + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
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


def dense_repr(pv) -> str:
    """``repr(astuple(pv))`` with every operator dense, without astuple's
    deep copy of every entry: the diagram is the one field that is a
    dataclass."""
    fields = []
    for f in dataclasses.fields(pv):
        v = getattr(pv, f.name)
        if f.name == "operators":
            v = tuple(dense_operator(pv, op) for op in v)
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
