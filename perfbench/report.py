"""Human-readable report over the benchmark's workloads.

    python3 perfbench/report.py [--seconds S] [--seeds K] [--workload W ...]

For each workload this runs ``run.py`` untraced with seeds 1..K, then once
traced with seed 1.  It prints every end-to-end metric by name and unit (the
median over the seeds, and the spread: the distance between the first and
third quartiles as a share of the median), the error rate (failed operations
over attempted ones), every per-layer metric of the traced run, and the
tracing overhead: traced ``wall_s`` minus untraced ``wall_s``.  It exits 1
if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print("   ", line)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def report(workload: str, seconds: int, seeds: int) -> bool:
    print(f"== {workload}")
    runs = [bench(workload, seed, seconds, 0) for seed in range(1, seeds + 1)]
    traced = bench(workload, 1, seconds, 1)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs) and traced["correct"]
    print(f"  correct {correct}; error_rate {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        print(f"  {name:<12} {statistics.median(values):>14.6g} {metric['unit']:<5} "
              f"spread {spread(values):.3f} over {len(values)} seeds")
    untraced_wall = runs[0]["metrics"]["wall_s"]["value"]
    traced_wall = traced["metrics"]["trace.wall_s"]["value"]
    print(f"  tracing overhead (seed 1): {traced_wall - untraced_wall:+.3f} s "
          f"({traced_wall:.3f} traced vs {untraced_wall:.3f} untraced)")
    for name, metric in traced["metrics"].items():
        print(f"    {name:<45} {metric['value']:>14.6g} {metric['unit']}")
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or workloads.WORKLOADS:
        ok = report(workload, args.seconds, args.seeds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
