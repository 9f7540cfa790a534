"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload sweep --seeds 0-9 [--out FILE]

The spread is the distance between the first and third quartiles of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
printed beside the bound BENCHMARK.json gives the metric.  Runs are made one
after another from the root of the checkout, with BENCHMARK.json's
``run_seconds``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "min": min(values), "max": max(values)}
        print(f"{name:16s} median {med:12.6g}  spread {(q3 - q1) / med:.4f}  "
              f"bound {bounds[name]}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload,
                                        "run_seconds": spec["run_seconds"],
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
