"""Self-check: run-to-run spread of every end-to-end metric.

Runs the benchmark once per seed on a workload and reports, for each
metric, its median, its quartile spread ``(Q3 - Q1) / median`` (with
``statistics.quantiles(values, n=4)``) and that spread against the
metric's bound in ``BENCHMARK.json`` — a steady metric stays below a
third of its bound.  Run from the root of a checkout::

    python3 servebench/spread.py --workload mixed_closed --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {out.returncode}:\n"
            f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (Q3 - Q1) / median)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
        ), flush=True)
    steady = True
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, rel = spread(values)
        ok = rel < bound / 3
        steady &= ok
        print(f"{name:<18} {median:12.4f} {rel:8.4f} {bound:6.3f}  "
              f"{'ok' if ok else 'TOO NOISY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
