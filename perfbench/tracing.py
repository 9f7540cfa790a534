"""Spans and counters recorded around pvlab's public functions, from outside.

A :class:`Tracer` replaces a function with a timing wrapper in every loaded
``pvlab`` module that binds it, so calls made through a name imported at
module load (``pvcore`` binds ``kernel_basis``, ``det``, ... from
``_linalg``) are seen as well as calls through the defining module.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts the originals back.

Each call becomes one span: name, start, end, the enclosing span and the
benchmark item it ran under.  Spans are kept in flat arrays in memory and
summarised (calls, total seconds, self seconds) when the run ends.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (module under pvlab, function): every function a layer is reached through.
TARGETS = (
    ("rootsys", "build_root_system"),
    ("chevalley", "chevalley_basis"),
    ("pvcore", "build_parabolic_pv"),
    ("pvcore", "is_regular"),
    ("pvcore", "is_reductive"),
    ("pvcore", "restrict"),
    ("pvcore", "q_irreducible"),
    ("pvcore", "decompose_filtration"),
    ("pvcore", "verify_invariant"),
    ("_linalg", "kernel_basis"),
    ("_linalg", "det"),
    ("_linalg", "rank"),
    ("_linalg", "modp_rank"),
    ("_linalg", "matvec"),
    ("models", "verify_model"),
    ("classify", "classify"),
    ("classify", "family_match"),
    ("cli", "main"),
)

def layer_name(module: str, fn: str) -> str:
    """Metric prefix: metric names must start with a letter, so ``_linalg``
    is reported as ``linalg``."""
    return module.lstrip("_") + "." + fn


def bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(int(value)).bit_length()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.item = -1
        self._stack = [-1]
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cells: list[int] = []     # kernel_basis input rows * cols
        self.in_bits_max = 0           # kernel_basis largest input entry
        self.out_bits_max = 0          # det largest result
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        """A wrapper of ``fn`` that records one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        sname, sparent, sitem = self.span_name, self.span_parent, self.span_item
        sstart, send = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            sitem.append(self.item)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                sstart[sid] = t0
                send[sid] = t1
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded pvlab module that binds it."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "pvlab" or name.startswith("pvlab.")]
        probes = {"_linalg.kernel_basis": self._probe_kernel, "_linalg.det": self._probe_det}
        for module, fn in TARGETS:
            owner = sys.modules.get("pvlab." + module)
            if owner is None:
                continue
            original = getattr(owner, fn)
            wrapper = self.wrap(layer_name(module, fn), original,
                                probes.get(f"{module}.{fn}"))
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _probe_kernel(self, args, result) -> None:
        rows = args[0]
        self.cells.append(len(rows) * (len(rows[0]) if rows else 0))
        self.in_bits_max = max(self.in_bits_max,
                               max((bits(v) for row in rows for v in row), default=0))

    def _probe_det(self, args, result) -> None:
        self.out_bits_max = max(self.out_bits_max, bits(result))

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, seconds (outermost calls only) and self seconds,
        the span's duration less the time its wrapped children cover."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.span_name[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not self._nested_in_same(i, nid):
                row["s"] += dur[i]
        return out

    def _nested_in_same(self, i: int, nid: int) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def write_spans(self, path, items: list[str], meta: dict) -> None:
        doc = dict(meta)
        doc.update({
            "names": self.names,
            "items": items,
            "columns": ["name", "start", "end", "parent", "item"],
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "item": list(self.span_item),
        })
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
