"""The three benchmark workloads: their set-up, their items and the check
each item's output must pass.

A workload sees the library only as the freshly imported modules handed to
it (``lib["pvlab.cli"]`` and so on) and calls public entry points through
module attributes at call time, so the tracer's wrappers are seen.  The
workload seed reaches the library only as its own ``seed=`` argument.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
from typing import Callable, NamedTuple

# tests/test_acceptance.py freezes the same catalog; it is repeated here so
# that the benchmark's gate cannot move with the tests.
SWEEP_TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 8)]
               + [("C", n) for n in range(3, 8)] + [("D", n) for n in range(4, 8)]
               + [("E", 6)])
SWEEP_SIZE = 927
CATALOG = frozenset({
    "A3[1,3]", "A4[1,4]", "A5[1,5]", "A6[1,6]", "A6[2,5]", "A7[1,7]", "A7[2,6]",
    "B3[1,3]", "B4[1,4]", "B5[1,5]", "B6[1,6]", "B7[1,7]",
    "C6[2,5]", "C7[2,6]",
    "D5[2,4]", "D5[2,5]", "D6[2,5,6]", "D7[2,6,7]",
    "E6[1,2]", "E6[2,6]",
})

# Few-circle diagrams of rank 10-14 plus E8: verdicts (seed-independent),
# family row and generic isotropy dimension, frozen from seeds 0, 1 and 2.
_Q_IRR = {"prehomogeneous": True, "regular": True, "n_invariants": 1,
          "one_irreducible": True, "q_irreducible": True, "completely_q_reducible": True}


def _reducible(n_invariants: int) -> dict:
    return {"prehomogeneous": True, "regular": True, "n_invariants": n_invariants,
            "one_irreducible": False, "q_irreducible": False, "completely_q_reducible": True}


LARGE = {
    "A12[1,12]": (_Q_IRR, {"family": "A", "params": [0, 10, 0]}, 100),
    "A12[3,10]": (_Q_IRR, {"family": "A", "params": [2, 6, 2]}, 24),
    "B10[1,10]": (_Q_IRR, {"family": "B", "params": [0, 8, 0]}, 64),
    "C12[3,10]": ({"prehomogeneous": True, "regular": False, "n_invariants": 0,
                   "one_irreducible": False, "q_irreducible": False,
                   "completely_q_reducible": False}, None, 19),
    "D12[2,11,12]": (_Q_IRR, {"family": "D3", "params": [1, 8]}, 50),
    "D10[2,4,6,8]": (_reducible(4), None, 2),
    "A14[2,13]": (_Q_IRR, {"family": "A", "params": [1, 10, 1]}, 84),
    "E8[1,3,5,7]": (_reducible(3), None, 4),
    "E8[1,2]": (_Q_IRR, {"family": "E8", "params": []}, 22),
}

# tests/test_acceptance.py INVARIANT_GATES, then filtrations with their
# frozen stage labels.
INVARIANT_GATES = (
    "matrix-pair:p=2,q=3,r=2",
    "skew-pair:p=4,r=5",
    "skew-pair:p=2,r=5",
    "vector-skew:n=5",
    "dual-pair:n=2",
    "dual-pair:n=3",
    "descending-chains:n=1",
    "descending-chains:n=2",
)
FILTRATIONS = {
    "sym-vector:n=3": [("S",), ("v",)],
    "descending-chains:n=2": [("V[2]",), ("V[1]",)],
    "descending-chains:n=3": [("V[3]",), ("V[2]",), ("V[1]",)],
}


class Item(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


class Workload(NamedTuple):
    name: str
    modules: tuple[str, ...]                 # imported fresh for every pass
    setup: Callable[[dict, object], object]  # (modules, tracer or None) -> state
    items: Callable[[dict, object, int], list[Item]]  # (modules, state, seed)


def _warm_chevalley(lib, pairs) -> None:
    SimpleType = lib["pvlab.rootsys"].SimpleType
    chevalley = lib["pvlab.chevalley"]
    for family, rank in pairs:
        chevalley.chevalley_basis(SimpleType(family, rank))


# ---------------------------------------------------------------------------
# sweep: classify(d, "both", seed) over the acceptance catalog range


def _sweep_setup(lib, tracer) -> None:
    _warm_chevalley(lib, SWEEP_TYPES)


def _sweep_check(label: str):
    def check(report) -> str | None:
        q_irr = report.verdicts.q_irreducible
        if q_irr != (label in CATALOG):
            return f"q_irreducible={q_irr}, catalog says {label in CATALOG}"
        if q_irr and (report.family is None or not report.verdicts.regular
                      or report.verdicts.n_invariants != 1):
            return "catalog hit without family row, regularity or a single invariant"
        return None
    return check


def _sweep_items(lib, state, seed: int) -> list[Item]:
    classify = lib["pvlab.classify"]
    diagram = lib["pvlab.diagram"]
    SimpleType = lib["pvlab.rootsys"].SimpleType
    items = []
    for family, rank in SWEEP_TYPES:
        t = SimpleType(family, rank)
        for size in range(2, rank + 1):
            for subset in itertools.combinations(range(1, rank + 1), size):
                d = diagram.WeightedDiagram(t, subset)
                label = diagram.render_compact(d)
                items.append(Item(label, lambda d=d: classify.classify(d, "both", seed),
                                  _sweep_check(label)))
    if len(items) != SWEEP_SIZE:
        raise RuntimeError(f"sweep enumerates {len(items)} diagrams, expected {SWEEP_SIZE}")
    return items


# ---------------------------------------------------------------------------
# large: in-process `pvlab classify <d> --json --seed <seed>`


def _large_setup(lib, tracer) -> None:
    parse = lib["pvlab.diagram"].parse_diagram
    types = {(d.type.family, d.type.rank) for d in map(parse, LARGE)}
    _warm_chevalley(lib, sorted(types))


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _large_check(label: str):
    verdicts, family, isotropy_dim = LARGE[label]

    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        results = json.loads(text)["results"]
        got = (results["verdicts"], results["family"], results["witnesses"]["isotropy_dim"])
        if got != (verdicts, family, isotropy_dim):
            return f"got {got}, frozen {(verdicts, family, isotropy_dim)}"
        return None
    return check


def _large_items(lib, state, seed: int) -> list[Item]:
    cli = lib["pvlab.cli"]
    return [Item(label, lambda argv=["classify", label, "--json", "--seed", str(seed)]:
                 _run_cli(cli, argv), _large_check(label))
            for label in LARGE]


# ---------------------------------------------------------------------------
# models: verify_model on the invariant gates, then filtrations


def traced_spec(spec, tracer):
    """A copy of a model spec whose invariant evaluators record spans."""
    invariants = tuple(
        dataclasses.replace(mi, invariant=dataclasses.replace(
            mi.invariant, evaluate=tracer.wrap("models.evaluate", mi.invariant.evaluate)))
        for mi in spec.invariants)
    return dataclasses.replace(spec, invariants=invariants)


def _models_setup(lib, tracer) -> dict:
    build = lib["pvlab.models"].build_model
    specs = {s: build(s) for s in (*INVARIANT_GATES, *FILTRATIONS)}
    if tracer is not None:
        specs = {s: traced_spec(spec, tracer) for s, spec in specs.items()}
    return specs


def _verify_check(out) -> str | None:
    ok, lines = out
    if ok:
        return None
    return "; ".join(f"{line.name}: {line.detail}" for line in lines if not line.passed)


def _filtration_check(want):
    def check(report) -> str | None:
        got = [s.labels for s in report.stages]
        return None if got == want else f"stages {got}, frozen {want}"
    return check


def _models_items(lib, specs, seed: int) -> list[Item]:
    models = lib["pvlab.models"]
    pvcore = lib["pvlab.pvcore"]
    items = [Item("verify " + s, lambda spec=specs[s]: models.verify_model(spec, seed=seed),
                  _verify_check) for s in INVARIANT_GATES]
    items += [Item("decompose " + s,
                   lambda pv=specs[s].instance: pvcore.decompose_filtration(pv, seed=seed),
                   _filtration_check(want)) for s, want in FILTRATIONS.items()]
    return items


_DIAGRAM_MODULES = ("pvlab", "pvlab.rootsys", "pvlab.chevalley", "pvlab.diagram")

WORKLOADS = {w.name: w for w in (
    Workload("sweep", _DIAGRAM_MODULES + ("pvlab.classify",), _sweep_setup, _sweep_items),
    Workload("large", _DIAGRAM_MODULES + ("pvlab.cli",), _large_setup, _large_items),
    Workload("models", ("pvlab", "pvlab.models", "pvlab.pvcore"), _models_setup, _models_items),
)}
