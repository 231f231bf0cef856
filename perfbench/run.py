"""The liechain benchmark.

    python3 perfbench/run.py --workload {theorems,queries,large-inputs}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run starts ``SETUP_REPS`` fresh setup
workers, which import liechain and then time a calibration, half of them
before and half after the passes.  Passes of the workload run in between,
each in a fresh worker process and each followed by one more setup worker,
until the next pass would end after ``--seconds`` (at least one pass).  Times are reported in reference seconds (see
REFERENCE_S).  Every worker is a single-threaded closed loop with one
client.  The last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Lines before it,
starting with ``#``, say which tail percentile was used and list failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 11
WORKER_TIMEOUT_S = 150
# The host's speed drifts by up to half for tens of seconds at a time, and it
# moves every pure-Python workload alike.  Every time is therefore reported
# in reference seconds: a pass's times are scaled by REFERENCE_S over the
# median time that ``worker.calibrate`` takes in the CALIBRATION_WINDOW setup
# workers run just before the pass and the CALIBRATION_WINDOW run just after
# it (an import time: over its own worker's calibration).  REFERENCE_S is
# roughly the calibration time of the machine the baseline was taken on, so
# reference seconds are about that machine's seconds at full speed.
REFERENCE_S = 0.011
CALIBRATION_WINDOW = 3
# Tail percentile per workload: the highest one with at least ten samples
# beyond it at the seed commit's sample count in a run.  A theorems run has a
# single operation (one cold sweep), so its percentiles are that sweep's time.
TAIL_PCT = {"theorems": 100.0, "queries": 99.0, "large-inputs": 85.0}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def run_worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def scale_pass(result: dict, factor: float) -> dict:
    """A pass's result with every time multiplied by ``factor``."""
    out = dict(result, raw_wall_s=result["wall_s"], speed=factor)
    out["wall_s"] = result["wall_s"] * factor
    out["latencies_s"] = [s * factor for s in result["latencies_s"]]
    out["suite_s"] = {name: s * factor for name, s in result["suite_s"].items()}
    if "layers" in result:
        out["layers"] = {name: value * factor if name.endswith("_s") else value
                         for name, value in result["layers"].items()}
        out["bench_own_s"] = result["bench_own_s"] * factor
    return out


def end_to_end(workload: str, setups: list[dict], passes: list[dict]) -> tuple[dict, list[str]]:
    latencies = [s for p in passes for s in p["latencies_s"]]
    measured = sum(p["wall_s"] for p in passes)
    tail, beyond = percentile(latencies, TAIL_PCT[workload])
    values = {
        "setup_s": statistics.median(s["import_s"] * REFERENCE_S / s["calibrate_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": len(latencies) / measured,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"# {workload}: {len(passes)} passes, {len(latencies)} operations; op_tail_ms is "
             f"p{TAIL_PCT[workload]:g} with {beyond} samples beyond it",
             f"# unscaled: wall_s {statistics.median(p['raw_wall_s'] for p in passes):.4f} s, "
             f"setup_s {statistics.median(s['import_s'] for s in setups):.4f} s; "
             f"host speed factor {statistics.median(p['speed'] for p in passes):.3f}"]
    if passes[0]["suite_s"]:
        notes.append("# suite seconds: " + ", ".join(
            f"{name} {statistics.median(p['suite_s'][name] for p in passes):.3f}"
            for name in workloads.SUITE_NAMES))
    return values, notes


def per_layer(passes: list[dict]) -> dict:
    """Mean per pass of every per-layer metric."""
    out = {}
    for name in passes[0]["layers"]:
        out[name] = statistics.fmean(p["layers"][name] for p in passes)
    for name in workloads.SUITE_NAMES:
        out[f"suites.{name}.s"] = statistics.fmean(p["suite_s"].get(name, 0.0) for p in passes)
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    out["trace.bench_own_s"] = statistics.fmean(p["bench_own_s"] for p in passes)
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bounds_per_sign"):
        return "bounds/sign"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    setups = [run_worker("--setup") for _ in range(SETUP_REPS // 2)]
    raw_passes: list[tuple[dict, int]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = run_worker(workload, str(seed), str(len(raw_passes)), "1" if trace else "0")
        raw_passes.append((result, len(setups)))
        setups.append(run_worker("--setup"))
        done = time.perf_counter()
        if done - start + (done - began) > seconds:
            break
    setups += [run_worker("--setup") for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    passes = [scale_pass(result, REFERENCE_S / statistics.median(
                  s["calibrate_s"] for s in setups[after - CALIBRATION_WINDOW:after + CALIBRATION_WINDOW]))
              for result, after in raw_passes]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies_s"]) for p in passes)
    notes = []
    if trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in per_layer(passes).items()}
        for i, p in enumerate(passes):
            if not math.isclose(p["self_sum_s"], p["root_s"], rel_tol=1e-9, abs_tol=1e-9):
                failures.append(f"pass {i}: span self times add up to {p['self_sum_s']!r}, "
                                f"root spans to {p['root_s']!r}")
    else:
        values, notes = end_to_end(workload, setups, passes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    notes += [f"# FAILED {f}" for f in failures[:20]]
    result = {"correct": not failures, "attempted": attempted,
              "failed": sum(p["failed_ops"] for p in passes), "metrics": metrics}
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "liechain", "__init__.py")):
        print(f"error: no liechain sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
