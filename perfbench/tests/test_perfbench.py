"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _ops_in_fresh_interpreter(workload, seed, index, hash_seed):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(repr(workloads.ops_for(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", code, BENCH, workload, str(seed), str(index)],
                          env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_gives_the_same_inputs(workload):
    assert workloads.ops_for(workload, 7, 2) == workloads.ops_for(workload, 7, 2)
    # also across interpreters with different string hashing
    first = _ops_in_fresh_interpreter(workload, 7, 2, hash_seed=1)
    assert first == _ops_in_fresh_interpreter(workload, 7, 2, hash_seed=2)
    assert first == repr(workloads.ops_for(workload, 7, 2)) + "\n"


@pytest.mark.parametrize("workload", ["queries", "large-inputs"])
def test_seeds_and_passes_give_different_inputs(workload):
    base = workloads.ops_for(workload, 7, 2)
    assert base != workloads.ops_for(workload, 8, 2)
    assert base != workloads.ops_for(workload, 7, 3)


def test_query_session_has_the_fixed_mix():
    ops = workloads.ops_for("queries", 3, 0)
    assert len(ops) == workloads.QUERY_PASS_SIZE
    for kind, count in workloads.QUERY_MIX.items():
        assert sum(op.command == kind for op in ops) == count
    assert sum(op.as_json for op in ops) == len(ops) // 2
    for i, op in enumerate(ops):
        if op.command == "verify-chain":
            assert op.source < i and ops[op.source].command.startswith("chain-")
        if op.command == "oracle":
            assert op.group.curated and op.group.dim <= 60


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second root d runs [12, 13]
    tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10, 12, 13))
    root = tracer.open("cli.main")
    a = tracer.open("chains.max_chain")
    c = tracer.open("subgroups.maximal_connected")
    tracer.close(c)
    tracer.close(a)
    b = tracer.open("subgroups.maximal_connected")
    tracer.close(b)
    tracer.close(root)
    d = tracer.open("cli.main")
    tracer.close(d)
    assert list(tracer.parent) == [-1, 0, 1, 0, -1]
    assert tracing.self_times(tracer.parent, tracer.start, tracer.end) == [3, 2, 1, 4, 1]
    summary = tracing.summarize(tracer)
    assert summary["spans"]["cli.main"] == {"calls": 2, "self_s": 4}
    assert summary["spans"]["subgroups.maximal_connected"] == {"calls": 2, "self_s": 5}
    assert summary["roots"] == {"cli.main": 11}
    assert summary["root_s"] == summary["self_sum_s"] == 11


def test_wrapped_calls_and_generators_nest():
    tracer = tracing.Tracer(clock=FakeClock(*range(100)))

    def leaf(x):
        return x + 1

    def items():
        yield leaf(1)
        yield leaf(2)

    leaf_t = tracer.wrap(leaf, "groups.leaf")
    items_t = tracer.wrap_generator(items, "groups.items")

    def outer():
        return [leaf_t(0)] + list(items_t())

    assert tracer.wrap(outer, "cli.main")() == [1, 2, 3]
    summary = tracing.summarize(tracer)
    assert summary["spans"]["groups.leaf"]["calls"] == 1
    assert summary["spans"]["groups.items"]["calls"] == 3  # two items, then the end
    assert tracer.counts["groups.items.yielded"] == 2
    assert summary["self_sum_s"] == summary["root_s"]


def test_a_pass_is_scaled_in_every_time_and_no_count():
    import run

    result = {"wall_s": 3.0, "latencies_s": [1.0, 2.0], "suite_s": {"cd": 1.0},
              "layers": {"cli.main.self_s": 2.5, "chains.nodes": 40}, "bench_own_s": 0.5}
    # the host ran at half the reference speed during this run
    scaled = run.scale_pass(result, 0.5)
    assert scaled["wall_s"] == pytest.approx(1.5) and scaled["raw_wall_s"] == 3.0
    assert scaled["latencies_s"] == pytest.approx([0.5, 1.0])
    assert scaled["suite_s"] == pytest.approx({"cd": 0.5})
    assert scaled["layers"] == pytest.approx({"cli.main.self_s": 1.25, "chains.nodes": 40})
    assert scaled["bench_own_s"] == pytest.approx(0.25)


def test_traced_pass_accounts_for_its_time():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "queries", "5", "0", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["failures"] == []
    assert result["self_sum_s"] == pytest.approx(result["root_s"], rel=1e-9)
    assert 0 <= result["wall_s"] - result["root_s"] < 0.1 * result["wall_s"]
    layers = result["layers"]
    assert layers["cli.main.self_s"] > 0 and layers["chains.max_chain.calls"] > 0
    # the layers' self times plus the benchmark's own time make up the pass
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum + result["bench_own_s"] == pytest.approx(result["wall_s"])


@pytest.fixture(scope="module")
def query_run():
    import worker

    ops = workloads.ops_for("queries", workloads.DEFAULT_SEED, 0)[:100]
    outputs, codes, crashes = [], [], []
    for op in ops:
        code, out, crash = worker.call_cli(worker.liechain.cli.main, op.argv,
                                           workloads.stdin_for(op, outputs))
        outputs.append(out)
        codes.append(code)
        crashes.append(crash)
    return worker, ops, codes, outputs, crashes


def test_real_outputs_pass_the_checks(query_run):
    worker, ops, codes, outputs, crashes = query_run
    assert worker.check_outputs(ops, codes, outputs, crashes) == []


def corrupt(op, out: str) -> str:
    """A plausible but wrong version of one operation's output."""
    if out.startswith("{"):
        payload = json.loads(out)
        key = {"dims": "dim", "len": "length", "oracle": "length", "chain-max": "nodes",
               "maximals": "complete", "verify-chain": "verdicts"}[op.command]
        value = payload[key]
        payload[key] = (not value if isinstance(value, bool)
                        else value[1:] if isinstance(value, list) else value + 1)
        return json.dumps(payload) + "\n"
    if op.command in ("chain-max", "maximals", "verify-chain"):
        lines = out.splitlines(keepends=True)
        return "".join(lines[:1] + lines[2:])
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), out, count=1)


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command", ["dims", "len", "chain-max", "maximals", "verify-chain", "oracle"])
def test_a_corrupted_output_gives_a_positive_error_rate(query_run, command, as_json):
    worker, ops, codes, outputs, crashes = query_run
    i = next(i for i, op in enumerate(ops) if op.command == command and op.as_json == as_json)
    corrupted = list(outputs)
    corrupted[i] = corrupt(ops[i], outputs[i])
    assert corrupted[i] != outputs[i]
    failures = worker.check_outputs(ops, codes, corrupted, crashes)
    assert len(failures) / len(ops) > 0


def test_a_wrong_exit_code_or_traceback_is_a_failure(query_run):
    worker, ops, codes, outputs, crashes = query_run
    assert worker.check_outputs(ops, [2] + codes[1:], outputs, crashes)
    assert worker.check_outputs(ops, codes, outputs, ["Traceback: boom"] + crashes[1:])
