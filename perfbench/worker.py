"""One pass of a workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE
    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --write-golden WORKLOAD

The worker imports liechain from ``src/`` first thing and times that import.
It then runs the pass's operations in-process, timing each one, checks the
outputs (untimed) and prints one JSON object on stdout.  With TRACE = 1 the
layer boundaries are wrapped in spans (see tracing.py) and the result carries
the per-layer metrics as well.  ``--setup`` stops after the import and then
times ``calibrate``, which measures the host's current speed.
``--write-golden`` records pass 0 of the default seed as the golden stdout
stream of a CLI workload; use it only when a change of output is deliberate.
"""

import sys
import time

_t0 = time.perf_counter()
import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import liechain  # noqa: E402
import liechain.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "perfbench", "golden")
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def calibrate() -> float:
    """Median seconds of nine runs of a fixed piece of pure-Python work of
    the kinds liechain does: small tuples, sorting, dict updates, Fraction
    sums."""
    times = []
    for _ in range(9):
        t = time.perf_counter()
        table: dict = {}
        total = Fraction(0)
        for i in range(1, 4500):
            key = tuple(sorted((i % 7, i % 11, i % 13)))
            table[key] = table.get(key, 0) + i * i % 17
            total += Fraction(i % 29, 1 + i % 31)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}-seed{workloads.DEFAULT_SEED}-pass0.txt.gz")


def call_cli(main, argv, stdin_text):
    """Run ``main(argv)`` with stdout and stderr captured; returns the exit
    code (None after a traceback), stdout and the traceback text."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    crash = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # any traceback is an operation failure
                code = None
                crash = traceback.format_exc()
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), crash


def timed(latencies: list, fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    latencies.append(time.perf_counter() - t)
    return result


def run_theorems(tracer, latencies):
    """The full ``check-theorems --json`` sweep, one suite at a time as
    ``run_suites`` runs them.  The sweep is one operation."""
    from liechain.suites import run_suites

    differing = []
    for name in workloads.SUITE_NAMES:
        call = tracer.wrap(run_suites, f"suites.{name}") if tracer else run_suites
        results = timed(latencies, call, [name], workloads.THEOREMS_MAX_DIM)
        suite_lines = [json.dumps({"suite": suite, **check.to_json()}) for suite, check in results]
        digest = hashlib.sha256("".join(line + "\n" for line in suite_lines).encode()).hexdigest()
        if digest != workloads.SUITE_DIGESTS[name]:
            differing.append(name)
    if differing:
        return [f"check-theorems output differs from the seed commit's in suites {differing}"]
    return []


def run_cli_ops(ops, tracer, latencies):
    main = tracer.wrap(liechain.cli.main, "cli.main") if tracer else liechain.cli.main
    outputs, codes, crashes = [], [], []
    for op in ops:
        stdin_text = workloads.stdin_for(op, outputs)
        code, out, crash = timed(latencies, call_cli, main, op.argv, stdin_text)
        outputs.append(out)
        codes.append(code)
        crashes.append(crash)
    return check_outputs(ops, codes, outputs, crashes), "".join(outputs)


def check_outputs(ops, codes, outputs, crashes) -> list[str]:
    """One message per operation that failed its checks."""
    failures = []
    for i, op in enumerate(ops):
        if crashes[i]:
            problem = "traceback: " + crashes[i].strip().splitlines()[-1]
        else:
            problem = workloads.check_op(op, codes[i], outputs[i], outputs[:i])
        if problem:
            failures.append(f"op {i} ({' '.join(op.argv)}): {problem}")
    return failures


def run_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    ops = workloads.ops_for(workload, seed, index)
    tracer = originals = None
    if trace:
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    latencies: list[float] = []
    golden_ok = True
    if workload == "theorems":
        failures = run_theorems(tracer, latencies)
    else:
        failures, stream = run_cli_ops(ops, tracer, latencies)
        if seed == workloads.DEFAULT_SEED and index == 0:
            with gzip.open(golden_path(workload), "rt", encoding="utf-8", newline="") as handle:
                golden_ok = handle.read() == stream
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = sum(latencies)
    result = {
        "wall_s": wall_s,
        "latencies_s": [wall_s] if workload == "theorems" else latencies,
        "peak_rss_mb": rss_mb,
        "failed_ops": len(failures),
        "failures": failures + ([] if golden_ok else ["stdout stream differs from the golden file"]),
        "suite_s": dict(zip(workloads.SUITE_NAMES, latencies)) if workload == "theorems" else {},
    }
    if tracer:
        summary = tracing.summarize(tracer)
        result["layers"] = tracing.layer_metrics(summary, tracer.counts, originals)
        result["bench_own_s"] = wall_s - summary["root_s"]
        result["root_s"] = summary["root_s"]
        result["self_sum_s"] = summary["self_sum_s"]
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.dump(os.path.join(SPANS_DIR, f"spans-{workload}-pass{index}.bin"))
    return result


def write_golden(workload: str) -> int:
    ops = workloads.ops_for(workload, workloads.DEFAULT_SEED, 0)
    failures, stream = run_cli_ops(ops, None, [])
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with gzip.open(golden_path(workload), "wt", encoding="utf-8", newline="") as handle:
        handle.write(stream)
    return 0


def main(argv) -> int:
    if argv == ["--setup"]:
        print(json.dumps({"import_s": IMPORT_S, "calibrate_s": calibrate()}))
        return 0
    if argv[0] == "--write-golden":
        return write_golden(argv[1])
    workload, seed, index, trace = argv
    print(json.dumps(run_pass(workload, int(seed), int(index), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
