import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import liechain
from liechain.cli import main
from liechain.groups import parse_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len(capsys):
    code, out, _ = run(capsys, "len", "E8")
    assert code == 0 and out == "20\n"


def test_depth(capsys):
    code, out, _ = run(capsys, "depth", "SU(7)")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "depth", "SU(4) x Sp(4)")
    assert code == 0 and out == "[4, 7]\n"


def test_cd_json(capsys):
    code, out, _ = run(capsys, "--json", "cd", "SU(3)")
    assert code == 0
    assert json.loads(out) == {"group": "SU(3)", "cd": 1}


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "Sp(6) x T^2")
    assert code == 0 and out == "dim 23  rank 5\n"
    code, out, _ = run(capsys, "--json", "dims", "Sp(6) x T^2")
    assert json.loads(out) == {"group": "Sp(6) x T^2", "dim": 23, "rank": 5}


def test_maximals_json_round_trip(capsys):
    code, out, _ = run(capsys, "--json", "maximals", "SO(7)")
    assert code == 0
    payload = json.loads(out)
    assert payload["parent"] == "SO(7)" and payload["complete"] is True
    assert {e["subgroup"] for e in payload["entries"]} == {
        "SU(4)", "Sp(4) x T", "SU(2)^3", "G2"}
    for entry in payload["entries"]:
        parse_group(entry["subgroup"])  # specs parse back


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "--json", "maximals", "E7")
    _, second, _ = run(capsys, "--json", "maximals", "E7")
    assert first == second


def test_chain_commands(capsys):
    code, out, _ = run(capsys, "chain", "--max", "SU(3)")
    assert code == 0
    assert out.splitlines() == ["SU(3)", "SU(2) x T", "SU(2)", "T", "1"]
    code, out, _ = run(capsys, "--json", "chain", "--min", "SO(7)")
    payload = json.loads(out)
    assert payload["length"] == 4 and payload["nodes"][1] == "G2"
    code, _, err = run(capsys, "chain", "--min", "SU(7) x SU(2)")
    assert code == 1 and "bounded" in err


def test_verify_chain_file(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("SO(7)\nG2\nSU(2)\nT\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify-chain", str(path))
    assert code == 0 and "overall: valid" in out

    path.write_text("SU(3)\nT\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify-chain", str(path))
    assert code == 1 and "invalid" in out

    code, out, _ = run(capsys, "--json", "verify-chain", str(path))
    payload = json.loads(out)
    assert payload["overall"] == "invalid" and payload["failed_step"] == 0


@pytest.mark.parametrize("chain, code, expected", [
    ("SU(3)\nT\n1\n", 1,
     "step 0: SU(3) > T: no\n"
     "step 1: T > 1: yes\n"
     "overall: invalid (step 0 is not a maximal inclusion)\n"),
    ("SU(7)\nSU(2)\nT\n1\n", 0,
     "step 0: SU(7) > SU(2): unknown\n"
     "step 1: SU(2) > T: yes\n"
     "step 2: T > 1: yes\n"
     "overall: valid-modulo-unknown\n"),
    ("1\n", 0, "overall: valid\n"),
])
def test_verify_chain_text_report(tmp_path, capsys, chain, code, expected):
    # every step line, the overall line with its reason, and one final newline
    path = tmp_path / "chain.txt"
    path.write_text(chain, encoding="utf-8")
    assert run(capsys, "verify-chain", str(path)) == (code, expected, "")


def test_verify_chain_non_utf8_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "verify-chain", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dims_of_a_large_power(capsys):
    code, out, _ = run(capsys, "dims", "E8^20000")
    assert code == 0 and out == "dim 4960000  rank 160000\n"


def test_power_over_the_factor_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "len", "SU(2)^99999999999999999999")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["--max", "--min"])
def test_chain_over_the_length_cap_is_refused_at_once(capsys, mode):
    start = time.perf_counter()
    code, out, err = run(capsys, "chain", mode, "T^100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "chain", "--max", "SU(2000)")
    assert code == 0 and len(out.splitlines()) == 3999


def test_database_work_over_the_degree_cap_is_refused_at_once(tmp_path, capsys):
    # verify-chain would generate 1.5M reducible steps of SU(3000000)
    # before it reached SO(3000000)
    path = tmp_path / "chain.txt"
    path.write_text("SU(3000000)\nSO(3000000)\n1\n", encoding="utf-8")
    # SU(100000) alone would take about 3 s and 90 MB to tabulate
    for argv in (("maximals", "SU(99999999)"), ("--json", "maximals", "SU(99999999)"),
                 ("maximals", "SU(100000)"), ("maximals", "SU(3600) x SU(16401)"),
                 ("verify-chain", str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    code, out, _ = run(capsys, "maximals", "SU(3600)")
    assert code == 0 and out.endswith("# 1824 maximal connected subgroup types, "
                                      "incomplete (outside curated coverage set: SU(3600))\n")


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "len", "SU(2")
    assert code == 2 and "error" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_check_theorems_small_range(capsys):
    code, out, _ = run(capsys, "check-theorems", "--suite", "cd", "--max-degree", "8")
    assert code == 0 and "[PASS]" in out
    code, out, _ = run(capsys, "--json", "check-theorems", "--suite", "tables")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(line["pass"] for line in lines)
    assert all(set(line) == {"suite", "claim", "inputs", "lhs", "rhs", "pass"}
               for line in lines)


def test_check_theorems_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LIECHAIN_MAX_DEGREE", "8")
    code, out, _ = run(capsys, "check-theorems", "--suite", "ld")
    assert code == 0 and "'max_dim': 8" not in out  # bound is applied, not echoed raw


def test_bad_env_bound_fails_only_check_theorems(capsys, monkeypatch):
    monkeypatch.setenv("LIECHAIN_MAX_DEGREE", "abc")
    code, out, _ = run(capsys, "len", "E8")
    assert code == 0 and out == "20\n"
    code, out, err = run(capsys, "check-theorems", "--suite", "ld")
    assert code == 2 and out == ""
    assert err == "error: LIECHAIN_MAX_DEGREE must be an integer, got 'abc'\n"
    code, out, _ = run(capsys, "check-theorems", "--suite", "ld", "--max-degree", "8")
    assert code == 0 and "[PASS]" in out  # the flag wins over the variable


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_check_theorems_bound_below_one_is_usage_error(capsys, bound):
    code, out, err = run(capsys, "check-theorems", "--max-degree", bound)
    assert code == 2 and out == ""
    assert err == f"error: --max-degree must be at least 1, got {bound}\n"


def test_parser_suite_names_and_bound_are_the_suites_own():
    from liechain import cli, suites

    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))
    assert cli.DEFAULT_MAX_DIM == suites.DEFAULT_MAX_DIM


@pytest.mark.parametrize("argv,digest", [
    (("--help",), "e0278af05773116cc18dc240646486dadbe549265535c8e9474c7da870e51b29"),
    (("check-theorems", "--help"),
     "6ed2e25b33a24463c92753228ecb82acc9c3805c754dc7148c354235a60fd33a"),
])
def test_help_text_is_unchanged(capsys, monkeypatch, argv, digest):
    # the help as CPython 3.11's argparse renders it at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_unknown_suite_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["check-theorems", "--suite", "nosuch"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    names = "cd,complex,depbds,dimlen,general,lcd,ld,lendim,liedep,smalll,sqrt,tables"
    assert captured.err == (
        "usage: liechain check-theorems [-h]\n"
        f"                               [--suite {{{names}}}]\n"
        "                               [--max-degree MAX_DEGREE] [--json]\n"
        "liechain check-theorems: error: argument --suite: invalid choice: 'nosuch' "
        f"(choose from {', '.join(repr(name) for name in names.split(','))})\n")


@pytest.mark.parametrize("argv", [("len", "E8"), ("maximals", "SO(7)")])
def test_json_flag_after_subcommand(capsys, argv):
    code_before, before, _ = run(capsys, "--json", *argv)
    code_after, after, _ = run(capsys, *argv, "--json")
    assert code_before == code_after == 0
    assert after == before
    json.loads(after)


def test_python_dash_m_runs_the_cli():
    src = str(Path(liechain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "liechain", "len", "E8"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "20\n" and proc.stderr == ""


def test_oracle_commands(capsys):
    code, out, _ = run(capsys, "oracle", "SO(8)")
    assert code == 0 and out == "length 9  depth 4\n"
    code, _, err = run(capsys, "oracle", "F4")
    assert code == 1 and "not certified complete" in err
    code, _, err = run(capsys, "oracle")
    assert code == 2


def test_oracle_cross_validate(capsys):
    code, out, _ = run(capsys, "--json", "oracle", "--cross-validate")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["pass"] for r in records)
    assert any(r["group"] == "G2" and r["oracle_l"] == 5 for r in records)


def test_trivial_group_edge_cases(capsys):
    code, out, _ = run(capsys, "len", "1")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "chain", "--max", "1")
    assert code == 0 and out == "1\n"
