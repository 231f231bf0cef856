"""Command-line interface.

Exit codes: 0 on success or all checks passing, 1 when any check fails,
2 on usage or parse errors.  ``--json`` switches every command to its
documented JSON schema; all output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .chains import max_chain, min_chain, parse_chain_text, verify_chain
from .errors import IncompleteDatabaseError, LieChainError
from .formulas import chain_difference, depth, length
from .groups import MAX_POWER_FACTORS, GroupType, parse_group
from .oracle import oracle_depth, oracle_length
from .subgroups import maximal_connected, query_json

# the names of ``suites.SUITES``, sorted, and ``suites.DEFAULT_MAX_DIM``, for
# the parser: ``suites`` and the radical arithmetic it uses load only when
# ``check-theorems`` or ``oracle --cross-validate`` runs, so no other command
# compiles them (tests/test_cli.py pins these to their sources)
SUITE_NAMES = ("cd", "complex", "depbds", "dimlen", "general", "lcd", "ld",
               "lendim", "liedep", "smalll", "sqrt", "tables")
DEFAULT_MAX_DIM = 60


def _emit(payload: dict, text: str, as_json: bool) -> None:
    print(json.dumps(payload) if as_json else text)


def _cmd_len(args) -> int:
    g = parse_group(args.group)
    value = length(g)
    _emit({"group": str(g), "length": value}, str(value), args.json)
    return 0


def _cmd_depth(args) -> int:
    g = parse_group(args.group)
    value = depth(g)
    _emit({"group": str(g), "depth": value.to_json()}, str(value), args.json)
    return 0


def _cmd_cd(args) -> int:
    g = parse_group(args.group)
    value = chain_difference(g)
    _emit({"group": str(g), "cd": value.to_json()}, str(value), args.json)
    return 0


def _cmd_dims(args) -> int:
    g = parse_group(args.group)
    _emit({"group": str(g), "dim": g.dim, "rank": g.rank},
          f"dim {g.dim}  rank {g.rank}", args.json)
    return 0


# the most the degrees of a group's distinct classical factors may sum to
# before ``maximals`` or ``verify-chain`` generates its subgroup table: about
# 0.25 s and 30 MB in a cold process on a 2-vCPU virtual machine (0.25 s and
# 36 MB with --json), and five times the degree of the largest table of the
# `large-inputs` benchmark workload, SU(3600)
MAX_TABLE_DEGREES = 20_000


def _refuse_large(g: GroupType) -> bool:
    """Report, and return True for, a group whose subgroup database is too
    large to generate: a classical type of degree n has at most 7n/6
    maximal steps, so the degrees of the distinct classical factors, summed,
    bound the work, and they may not exceed ``MAX_TABLE_DEGREES``."""
    degrees = sum(s.degree for s, _ in g.counts if s.is_classical)
    if degrees <= MAX_TABLE_DEGREES:
        return False
    print(f"error: {g} has classical degrees summing to {degrees}, above the "
          f"{MAX_TABLE_DEGREES} a subgroup table may take", file=sys.stderr)
    return True


def _cmd_maximals(args) -> int:
    g = parse_group(args.group)
    if _refuse_large(g):
        return 2
    if args.json:
        print(json.dumps(query_json(g)))
        return 0
    entries, flag = maximal_connected(g)
    status = "complete" if flag.complete else f"incomplete ({flag.reason})"
    print("".join(f"{entry.subgroup}  [{entry.kind}]\n" for entry in entries)
          + f"# {len(entries)} maximal connected subgroup types, {status}")
    return 0


def _cmd_chain(args) -> int:
    g = parse_group(args.group)
    # a chain has one node per step; bound it as the parser bounds S^k
    steps = length(g)
    if steps > MAX_POWER_FACTORS:
        print(f"error: {g} has length {steps}, above the {MAX_POWER_FACTORS} "
              "steps a chain may take", file=sys.stderr)
        return 2
    if args.min:
        chain = min_chain(g)
        if chain is None:
            print(f"no shortest chain available: depth of {g} is only bounded",
                  file=sys.stderr)
            return 1
    else:
        chain = max_chain(g)
    if args.json:
        print(json.dumps(chain.to_json()))
    else:
        print("\n".join(map(str, chain.nodes)))
    return 0


def _cmd_verify_chain(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        print(f"error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    nodes = parse_chain_text(text)
    if any(_refuse_large(g) for g in nodes[:-1]):
        return 2
    report = verify_chain(nodes)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        names = list(map(str, nodes))
        print("".join([f"step {i}: {names[i]} > {names[i + 1]}: {verdict}\n"
                       for i, verdict in enumerate(report.verdicts)])
              + f"overall: {report.overall}" + (f" ({report.reason})" if report.reason else ""))
    return 0 if report.ok else 1


def _max_dim(args) -> int:
    """The enumeration bound: ``--max-degree``, else LIECHAIN_MAX_DEGREE, else
    the default.  Raises ValueError, with a one-line message, unless it is an
    integer of at least 1 (a bound below that would scan nothing)."""
    if args.max_degree is not None:
        bound, source = args.max_degree, "--max-degree"
    else:
        text = os.environ.get("LIECHAIN_MAX_DEGREE")
        if text is None:
            return DEFAULT_MAX_DIM
        source = "LIECHAIN_MAX_DEGREE"
        try:
            bound = int(text)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {text!r}") from None
    if bound < 1:
        raise ValueError(f"{source} must be at least 1, got {bound}")
    return bound


def _cmd_check_theorems(args) -> int:
    from .suites import run_suites

    names = [args.suite] if args.suite else SUITE_NAMES
    try:
        max_dim = _max_dim(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_suites(names, max_dim=max_dim)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    failed = 0
    for suite, check in results:
        if args.json:
            print(json.dumps({"suite": suite, **check.to_json()}))
        else:
            tag = "PASS" if check.passed else "FAIL"
            print(f"[{tag}] {suite}: {check.claim}: {check.lhs} ({check.rhs})")
        failed += not check.passed
    if not args.json:
        print(f"# {len(results)} checks, {failed} failed")
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    if args.cross_validate:
        from .suites import cross_validate, oracle_scope

        records = cross_validate(oracle_scope())
        failed = 0
        for record in records:
            failed += not record["pass"]
            if args.json:
                print(json.dumps(record))
            else:
                tag = "PASS" if record["pass"] else "FAIL"
                print(f"[{tag}] {record['group']}: l={record['oracle_l']} "
                      f"depth={record['oracle_depth']}")
        return 1 if failed else 0
    if not args.group:
        print("oracle: need a group or --cross-validate", file=sys.stderr)
        return 2
    g = parse_group(args.group)
    l, d = oracle_length(g), oracle_depth(g)
    _emit({"group": str(g), "length": l, "depth": d},
          f"length {l}  depth {d}", args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechain",
        description="Lengths, depths and unrefinable chains of compact connected Lie groups.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
        ("len", _cmd_len, "longest unrefinable chain length"),
        ("depth", _cmd_depth, "shortest unrefinable chain length (or bounds)"),
        ("cd", _cmd_cd, "chain difference (or bounds)"),
        ("dims", _cmd_dims, "dimension and rank"),
        ("maximals", _cmd_maximals, "maximal connected subgroup types"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("group", help='group spec, e.g. "SU(5) x Sp(6) x T^2"')
        p.set_defaults(fn=fn)

    p = sub.add_parser("chain", help="construct a witness chain")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--max", action="store_true", help="longest chain (default)")
    mode.add_argument("--min", action="store_true", help="shortest chain, when exact")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("verify-chain", help="verify a chain file (one group per line, '1' last)")
    p.add_argument("file", help="path, or '-' for stdin")
    p.set_defaults(fn=_cmd_verify_chain)

    p = sub.add_parser("check-theorems", help="run the verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES, help="one suite (default: all)")
    p.add_argument(
        "--max-degree",
        type=int,
        help="bound for the enumerations (total dimension, at least 1; "
             f"default LIECHAIN_MAX_DEGREE, else {DEFAULT_MAX_DIM})",
    )
    p.set_defaults(fn=_cmd_check_theorems)

    p = sub.add_parser("oracle", help="brute-force length/depth on the curated set")
    p.add_argument("--cross-validate", action="store_true",
                   help="compare formulas and brute force over the curated scope")
    p.add_argument("group", nargs="?", help="group spec")
    p.set_defaults(fn=_cmd_oracle)

    # --json is also accepted after the subcommand; SUPPRESS keeps a
    # subcommand that omits it from resetting the value given before it
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="emit JSON output")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    building it costs about as much as answering a small query."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except IncompleteDatabaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LieChainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
