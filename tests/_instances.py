"""The dense form of a PVInstance, for the digests frozen in tests/data.

An instance stores each operator as its nonzero entries ``(row, col,
value)``, by rows.  The frozen digests were taken over dense operators, so
:func:`dense_repr` rebuilds them.  The tests are the only readers of the
dense form.
"""
from __future__ import annotations

import dataclasses


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
