"""pvlab benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each pass imports pvlab afresh (so no state outlives a pass), sets up the
workload and runs its items one at a time, checking every output.  Times
are main-thread CPU seconds scaled to a reference host speed (speed.py).

``--trace 0`` repeats passes until ``--seconds`` have gone and prints the
end-to-end metrics; pass k runs at seed ``seed + k * SEED_STRIDE``.
``--trace 1`` makes exactly one untraced and one traced
pass, whatever ``--seconds`` says, so that its counts do not depend on
timing; it prints the per-layer metrics and writes them, with every span,
under ``perfbench/out/``.  Two traced runs of the same code at one seed
must give the same counts: the second run fails if they differ.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output is right, 1 when a check fails and 2 on a usage error or
when there is no pvlab source to measure.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time
from typing import NamedTuple

from speed import SpeedProbe
from tracing import TARGETS, Tracer, layer_name
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_SETUPS = 3
SEED_STRIDE = 1_000_003

# Functions whose spans have wrapped children, so their self time differs
# from their total time.
WITH_CHILDREN = (
    "chevalley.chevalley_basis", "pvcore.build_parabolic_pv", "pvcore.is_regular",
    "pvcore.is_reductive", "pvcore.q_irreducible", "pvcore.decompose_filtration",
    "pvcore.verify_invariant", "models.verify_model", "classify.classify", "cli.main",
)


class Span(NamedTuple):
    """Wall-clock start and end (perf_counter) and main-thread CPU seconds."""
    start: float
    end: float
    cpu: float


class Stopwatch:
    def __init__(self) -> None:
        self.start, self.cpu = perf_counter(), thread_time()

    def stop(self) -> Span:
        cpu = thread_time() - self.cpu
        return Span(self.start, perf_counter(), cpu)


class Pass(NamedTuple):
    setup: Span
    labels: list[str]
    spans: list[Span]                 # one per item
    failures: list[tuple[str, str]]


def fresh_import(modules: tuple[str, ...]) -> dict:
    """Import the workload's modules as a new process would."""
    for name in [n for n in sys.modules if n == "pvlab" or n.startswith("pvlab.")]:
        del sys.modules[name]
    lib = {name: importlib.import_module(name) for name in modules}
    where = Path(lib["pvlab"].__file__).resolve()
    if SRC not in where.parents:
        print(f"pvlab imported from {where}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return lib


def pass_seed(seed: int, k: int) -> int:
    """Seed of the k-th pass of an untraced run: later passes draw other
    generic points, so that a run averages over more than one."""
    return seed + k * SEED_STRIDE


def measure_setup(workload) -> Span:
    gc.collect()
    watch = Stopwatch()
    workload.setup(fresh_import(workload.modules), None)
    return watch.stop()


def run_pass(workload, seed: int, tracer=None) -> Pass:
    gc.collect()  # free the previous pass's modules, which hold reference cycles
    watch = Stopwatch()
    lib = fresh_import(workload.modules)
    if tracer is not None:
        tracer.install()
    state = workload.setup(lib, tracer)
    setup = watch.stop()
    items = workload.items(lib, state, seed)
    spans, failures = [], []
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            watch = Stopwatch()
            try:
                out = item.run()
            except Exception:
                spans.append(watch.stop())
                failures.append((item.label, traceback.format_exc()))
                continue
            spans.append(watch.stop())
            error = item.check(out)
            if error is not None:
                failures.append((item.label, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.item = -1
    return Pass(setup, [item.label for item in items], spans, failures)


# ---------------------------------------------------------------------------
# metrics


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's method on
    its continued fraction (Numerical Recipes, section 6.4)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(2000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics around it, so that on a list of 9 or 11 items it does
    not report the noise of the one item that happens to sit there."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(passes: list[Pass], setups: list[Span], probe) -> dict:
    """Throughput over every item run; percentiles over the items, each
    taken as its median over the run's passes."""
    runs: dict[str, list[float]] = {}
    for p in passes:
        for label, span in zip(p.labels, p.spans):
            runs.setdefault(label, []).append(probe.scaled(*span))
    total = [t for ts in runs.values() for t in ts]
    item = [statistics.median(ts) for ts in runs.values()]
    return {
        "items_per_s": (len(total) / sum(total), "1/s"),
        "item_ms.p50": (quantile(item, 0.5) * 1e3, "ms"),
        "item_ms.p98": (quantile(item, 0.98) * 1e3, "ms"),
        "setup_s": (statistics.median(probe.scaled(*span) for span in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_seconds(p: Pass) -> float:
    return sum(span.end - span.start for span in p.spans)


def per_layer(tracer, n_items: int, overhead: float) -> dict:
    summary = tracer.summary()

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    for name in [layer_name(m, f) for m, f in TARGETS] + ["models.evaluate"]:
        metrics[name + ".calls"] = (get(name, "calls"), "count")
        metrics[name + ".s"] = (get(name, "s"), "s")
        if name in WITH_CHILDREN:
            metrics[name + ".self_s"] = (get(name, "self_s"), "s")
    cells = tracer.cells
    searches = get("pvcore.is_regular", "calls")
    metrics.update({
        "linalg.kernel_basis.cells_mean": (sum(cells) / len(cells) if cells else 0, "cells"),
        "linalg.kernel_basis.cells_max": (max(cells, default=0), "cells"),
        "linalg.kernel_basis.in_bits_max": (tracer.in_bits_max, "bits"),
        "linalg.det.out_bits_max": (tracer.out_bits_max, "bits"),
        "pvcore.is_regular.per_item": (searches / n_items, "calls/item"),
        "pvcore.draws_per_search": (
            get("linalg.modp_rank", "calls") / searches if searches else 0, "draws/search"),
        "trace.spans": (len(tracer.span_name), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return metrics


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced runs at one seed."""
    return name.endswith((".calls", ".per_item", "draws_per_search", "trace.spans")) \
        or ".cells_" in name or "_bits_" in name


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare with the counts of an earlier traced run of this code and seed."""
    path = OUT / f"counts-{workload}-seed{seed}-{code_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"{k}: {before.get(k)} then {counts.get(k)}"
            for k in sorted(set(before) | set(counts)) if before.get(k) != counts.get(k)]


def declared_metrics(trace: bool) -> dict | None:
    """Metric names and units from BENCHMARK.json, when it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pvlab" / "__init__.py").is_file():
        print(f"no pvlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    problems: list[str] = []
    with SpeedProbe() as probe:
        if args.trace:
            tracer = Tracer()
            passes = [run_pass(workload, args.seed), run_pass(workload, args.seed, tracer)]
        else:
            passes = []
            start = perf_counter()
            while not passes or (perf_counter() - start < args.seconds
                                 and not passes[-1].failures):
                passes.append(run_pass(workload, pass_seed(args.seed, len(passes))))
            setups = [p.setup for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(measure_setup(workload))

    if args.trace:
        untraced, traced = (sum(probe.scaled(*span) for span in p.spans) for p in passes)
        metrics = per_layer(tracer, len(passes[1].spans), traced / untraced)
        OUT.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}"
        tracer.write_spans(OUT / f"spans-{stem}.json.gz", passes[1].labels,
                           {"workload": workload.name, "seed": args.seed})
        (OUT / f"layers-{stem}.json").write_text(json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=1))
        counts = {k: v for k, (v, _) in metrics.items() if is_count(k)}
        drift = check_counts_repeat(workload.name, args.seed, counts)
        if drift:
            problems.append("counts differ from an earlier traced run at this seed: "
                            + "; ".join(drift))
        ranked = sorted((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_s")
                        or (k.endswith(".s") and k[:-2] + ".self_s" not in metrics))
        print(f"largest self times: "
              + ", ".join(f"{k} {v:.3f} s" for v, k in reversed(ranked[-3:])))
    else:
        metrics = end_to_end(passes, setups, probe)

    attempted = sum(len(p.spans) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for label, why in failures[:5]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != {k: u for k, (_, u) in metrics.items()}:
        print(f"metrics do not match BENCHMARK.json: printed {sorted(metrics)}, "
              f"declared {sorted(declared)}", file=sys.stderr)
        return 2

    print(f"{workload.name}: seed {args.seed}, {len(passes)} passes, {attempted} items, "
          f"{len(failures)} failed, failed_ratio {len(failures) / attempted:g}")
    print("  wall seconds of items per pass: "
          + ", ".join(f"{wall_seconds(p):.3f}" for p in passes)
          + f"; median probe {probe.median_probe() * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
