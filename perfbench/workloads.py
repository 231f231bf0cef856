"""Seeded inputs of the three workloads and the checks on their outputs.

This module does not import liechain: the inputs are plain argument lists,
and the checks compare the program's output with facts the benchmark knows
on its own (dimension, rank and length of each simple factor, the curated
coverage set) or with outputs recorded at the seed commit.

A run executes passes; each pass is one fresh worker process.  The inputs of
pass ``i`` of a run with seed ``s`` come from ``random.Random(f"{workload}:{s}:{i}")``,
so one seed always gives the same inputs.

* ``theorems``: the twelve ``check-theorems`` suites at the default bound,
  one operation per suite.  This input has nothing random in it.
* ``queries``: one interactive session of ``QUERY_PASS_SIZE`` CLI commands
  with a fixed command mix, half of them with ``--json``, and a fixed share
  asking again about a group seen earlier in the session.
* ``large-inputs``: one of each worst-case input kind per pass, each family
  used once so that no pass reuses another input's cached work.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("theorems", "queries", "large-inputs")
DEFAULT_SEED = 0

# -- facts the checks rely on ------------------------------------------------------

FAMILY_ORDER = ("SU", "Sp", "SO", "G2", "F4", "E6", "E7", "E8")
# dimension, rank and length of the exceptional groups
EXCEPTIONAL = {"G2": (14, 2, 5), "F4": (52, 4, 11), "E6": (78, 6, 13), "E7": (133, 7, 17),
               "E8": (248, 8, 20)}
CURATED = frozenset({("SU", 2), ("SU", 3), ("SU", 4), ("SU", 5), ("SU", 6), ("Sp", 4),
                     ("Sp", 6), ("SO", 7), ("SO", 8), ("G2", 0)})


def simple_invariants(family: str, n: int) -> tuple[int, int, int]:
    """Dimension, rank and length of one canonical simple factor."""
    if family == "SU":
        return n * n - 1, n - 1, 2 * n - 2
    if family == "Sp":
        return n * (n + 1) // 2, n // 2, 3 * n // 2 - 1
    if family == "SO":
        return n * (n - 1) // 2, n // 2, n + n // 4 - 1
    return EXCEPTIONAL[family]


@dataclass(frozen=True)
class Group:
    """A torus of rank ``torus`` times distinct canonical simple factors,
    each ``(family, degree, exponent)``; the degree is 0 for E/F/G."""

    torus: int
    terms: tuple[tuple[str, int, int], ...]

    def _sum(self, index: int) -> int:
        return sum(k * simple_invariants(f, n)[index] for f, n, k in self.terms)

    @property
    def dim(self) -> int:
        return self.torus + self._sum(0)

    @property
    def rank(self) -> int:
        return self.torus + self._sum(1)

    @property
    def length(self) -> int:
        return self.torus + self._sum(2)

    @property
    def curated(self) -> bool:
        return all((f, n) in CURATED for f, n, _ in self.terms)

    @property
    def exact_depth(self) -> bool:
        """Depth is known in closed form: a torus, or one simple type."""
        return len(self.terms) <= 1

    def _parts(self, terms) -> list[str]:
        parts = []
        for f, n, k in terms:
            atom = f if f in EXCEPTIONAL else f"{f}({n})"
            parts.append(atom if k == 1 else f"{atom}^{k}")
        if self.torus:
            parts.append("T" if self.torus == 1 else f"T^{self.torus}")
        return parts

    def canonical(self) -> str:
        """The group as liechain prints it."""
        ordered = sorted(self.terms, key=lambda t: (FAMILY_ORDER.index(t[0]), t[1]))
        return " x ".join(self._parts(ordered)) or "1"

    def spec(self, rng: random.Random) -> str:
        """The group as a user might type it: any term order, any case."""
        parts = self._parts(self.terms)
        rng.shuffle(parts)
        text = " x ".join(parts)
        return text.lower() if rng.random() < 0.2 else text


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` for ``liechain.cli.main``, the exit code the
    contract gives for it, and, for ``verify-chain``, the index of the
    earlier operation whose chain it reads on stdin."""

    command: str
    argv: tuple[str, ...]
    expect_code: int
    group: Optional[Group] = None
    source: Optional[int] = None

    @property
    def as_json(self) -> bool:
        return self.argv[0] == "--json"


def _op(command: str, group: Optional[Group], spec: str, as_json: bool,
        source: Optional[int] = None) -> Op:
    words = {"chain-max": ["chain", "--max", spec], "chain-min": ["chain", "--min", spec],
             "verify-chain": ["verify-chain", "-"]}.get(command, [command, spec])
    if command == "chain-min":
        code = 0 if group.exact_depth or group.curated else 1
    elif command == "oracle":
        code = 0 if group.curated else 1
    else:
        code = 0
    return Op(command, tuple(["--json"] * as_json + words), code, group, source)


# -- theorems ------------------------------------------------------------------

SUITE_NAMES = ("cd", "complex", "depbds", "dimlen", "general", "lcd", "ld", "lendim",
               "liedep", "smalll", "sqrt", "tables")
THEOREMS_MAX_DIM = 60

# sha256 of each suite's ``check-theorems --json`` lines at the seed commit:
# 26 checks, of which only the ``cd`` one fails (by design, see ROADMAP).
# Concatenated in this order they are the whole ``liechain --json
# check-theorems`` output, sha256 a7a514c5f9609aa3c8c71a1da2206f4df0a99632c4e711bdda053e101a17e1c2.
SUITE_DIGESTS = {
    "cd": "3d45e6411c6356e750a59e0576d78808826504f3aadfdf88e6afec1369af50a7",
    "complex": "c72c21b68f8add1ddbc0130b76f1a5e174b9a041c3f1b0f4e094f35810099d80",
    "depbds": "d8e5056e98eadf69e61976995afad06b5a7b81031762cea6df9ea0cfd5623c7b",
    "dimlen": "03560c1f21aa3e350f7a0d889e76dbbe635934616e0f2795b22b1688a548e4e0",
    "general": "70519082237f0ee2429990f16ea21567a60f97697a619ed3e366229f4556b98e",
    "lcd": "7d4211cb892c5cb35498d46cf444d68ddcab1b239340d235542c444a64138bc6",
    "ld": "cb048f0172217a39a4bf496da9c2cae363ee42f63c74ceb8ee6280d4713accb5",
    "lendim": "85878105fd20bf2ba77d2f2ead12bfb0dd4a84a2d251301b37e430784267fbf8",
    "liedep": "97cb0e653a9646ea9222bfd60646af5b4640207bc8db86a6ba763672afe46fa4",
    "smalll": "188980ac31743720d3ec41b0b619c581077acdd97ccd0d03a53ab9cec98dd611",
    "sqrt": "ccade69159006e8c29e5b1f4d7aa702e6f1c259be895768457ab2ac9aa26fbbb",
    "tables": "77daa4be94e918b79c6913805497f5460acc0c3a4309acf769006e60c0bcbf15",
}

# -- queries ---------------------------------------------------------------------

# commands per session
QUERY_MIX = {"len": 22, "depth": 22, "cd": 22, "dims": 22, "maximals": 22, "chain-max": 26,
             "chain-min": 24, "verify-chain": 24, "oracle": 16}
QUERY_PASS_SIZE = sum(QUERY_MIX.values())
REASK_SHARE = 0.3
_SIMPLE_POOL = ([("SU", n) for n in range(2, 41)] + [("Sp", n) for n in range(4, 41, 2)]
                + [("SO", n) for n in range(7, 41)] + [(f, 0) for f in EXCEPTIONAL])
_CURATED_POOL = sorted(CURATED)
_CURATED_MAX_DIM = 60


def _random_group(rng: random.Random, pool) -> Group:
    types = rng.sample(pool, rng.choice((1, 2, 3)))
    terms = tuple((f, n, rng.choice((1, 1, 1, 2, 2, 3))) for f, n in types)
    return Group(rng.choice((0, 0, 0, 0, 1, 1, 2, 3)), terms)


@functools.lru_cache(maxsize=None)
def _reference_lengths() -> tuple[int, ...]:
    rng = random.Random("length-strata")
    return tuple(sorted(_random_group(rng, _SIMPLE_POOL).length for _ in range(4000)))


def _length_strata(count: int) -> tuple[int, ...]:
    """Boundaries that split the lengths of random groups into ``count``
    equally likely strata, leaving out the longest 1%.  Length is the number
    of steps of a longest chain, which predicts the work of most commands;
    the work grows with its square, so the top stratum would otherwise span
    a fourfold range of work and the session's tail with it."""
    lengths = _reference_lengths()
    top = len(lengths) * 99 // 100
    return tuple(lengths[top * i // count] for i in range(1, count + 1))


def _stratified_group(rng: random.Random, stratum: int, count: int, fits) -> Group:
    """A random group whose length lies in stratum ``stratum`` of ``count``,
    so that every session draws the same spread of sizes."""
    edges = (0,) + _length_strata(count)
    while True:
        g = _random_group(rng, _SIMPLE_POOL)
        if edges[stratum] <= g.length < edges[stratum + 1] and fits(g):
            return g


def _curated_group(rng: random.Random) -> Group:
    while True:
        g = _random_group(rng, _CURATED_POOL)
        if _small_curated(g):
            return g


def _small_curated(g: Group) -> bool:
    return g.curated and g.dim <= _CURATED_MAX_DIM


def _cheap_min_chain(g: Group) -> bool:
    """A shortest chain of a mixed curated group is a brute-force search that
    grows steeply with dimension; keep those within the bound."""
    return g.exact_depth or not g.curated or g.dim <= _CURATED_MAX_DIM


def _plan(rng: random.Random, kind: str, count: int) -> list[tuple]:
    """The operations of one command in a session, in random order: whether
    each re-asks an earlier group, needs a curated group, and which length
    stratum of how many a fresh group is drawn from.  The shares are exact
    in every session."""
    curated = {"oracle": count, "chain-min": count // 2}.get(kind, 0)
    reask_curated = round(REASK_SHARE * curated)
    reask_other = round(REASK_SHARE * count) - reask_curated
    fresh_other = count - curated - reask_other
    slots = ([(True, True, 0, 1)] * reask_curated
             + [(False, True, 0, 1)] * (curated - reask_curated)
             + [(True, False, 0, 1)] * reask_other
             + [(False, False, i, fresh_other) for i in range(fresh_other)])
    rng.shuffle(slots)
    return slots


def queries_pass(rng: random.Random) -> list[Op]:
    kinds = [kind for kind, count in QUERY_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    # every verify-chain needs a chain --max before it
    first_chain = kinds.index("chain-max")
    kinds = ([k for k in kinds[:first_chain] if k != "verify-chain"] + ["chain-max"]
             + [k for k in kinds[:first_chain] if k == "verify-chain"] + kinds[first_chain + 1:])
    flags = [True, False] * (len(kinds) // 2) + [False] * (len(kinds) % 2)
    rng.shuffle(flags)
    plans = {kind: _plan(rng, kind, count) for kind, count in QUERY_MIX.items()}
    ops: list[Op] = []
    seen: list[tuple[Group, str]] = []
    for kind, as_json in zip(kinds, flags):
        if kind == "verify-chain":
            sources = [i for i, op in enumerate(ops)
                       if op.command in ("chain-max", "chain-min") and op.expect_code == 0]
            ops.append(_op(kind, None, "", as_json, source=rng.choice(sources)))
            continue
        reask, curated, stratum, strata = plans[kind].pop()
        fits = (_small_curated if curated
                else _cheap_min_chain if kind == "chain-min" else (lambda g: True))
        eligible = [(g, spec) for g, spec in seen if fits(g)]
        if reask and eligible:
            group, spec = rng.choice(eligible)
        else:
            group = (_curated_group(rng) if curated
                     else _stratified_group(rng, stratum, strata, fits))
            spec = group.spec(rng)
            seen.append((group, spec))
        ops.append(_op(kind, group, spec, as_json))
    return ops


# -- large inputs ----------------------------------------------------------------

def large_pass(rng: random.Random) -> list[Op]:
    """Each size is drawn from a narrow band so that every pass does about
    the same work; no two inputs of a pass share cached work.  Six of the
    thirteen operations are cheaper and six dearer than the smallest E8^k,
    so the median latency lies inside one cluster rather than between two."""
    chains = [Group(0, (("SU", rng.randrange(240, 260), 1),)),
              Group(0, (("Sp", 2 * rng.randrange(140, 160), 1),)),
              Group(0, (("SO", rng.randrange(240, 260), 1),))]
    powers = [Group(0, (("E8", 0, rng.randrange(lo, lo + 100)),)) for lo in (1000, 1500, 2000, 2500)]
    rng.shuffle(powers)
    maximals = [Group(0, (("SU", rng.randrange(lo, lo + 100), 1),)) for lo in (1500, 2500, 3500)]
    work = ([("chain-max", g) for g in chains] + [("dims", g) for g in powers[:2]]
            + [("len", g) for g in powers[2:]] + [("maximals", g) for g in maximals])
    rng.shuffle(work)
    flags = [True, False] * 6 + [False]
    rng.shuffle(flags)
    ops: list[Op] = []
    for kind, group in work:
        ops.append(_op(kind, group, group.canonical(), flags.pop()))
        if kind == "chain-max":
            ops.append(_op("verify-chain", None, "", flags.pop(), source=len(ops) - 1))
    return ops


def ops_for(workload: str, seed: int, index: int) -> list:
    """Inputs of pass ``index``: suite names for ``theorems``, Ops otherwise."""
    if workload == "theorems":
        return list(SUITE_NAMES)
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "queries":
        return queries_pass(rng)
    if workload == "large-inputs":
        return large_pass(rng)
    raise ValueError(f"unknown workload {workload!r}")


def stdin_for(op: Op, outputs: list[str]) -> Optional[str]:
    """The chain file a verify-chain reads: the nodes of its source chain,
    one per line."""
    if op.source is None:
        return None
    return "\n".join(chain_nodes(outputs[op.source])) + "\n"


def chain_nodes(out: str) -> list[str]:
    if out.startswith("{"):
        return json.loads(out)["nodes"]
    return out.splitlines()


# -- output checks ------------------------------------------------------------------

_MAXIMALS_FOOTER = re.compile(r"# (\d+) maximal connected subgroup types, (complete|incomplete \(.+\))")
_INTERVAL = re.compile(r"(\d+)|\[(\d+), (\d+)\]")


def _bounds(value) -> tuple[int, int]:
    if isinstance(value, int):
        return value, value
    if isinstance(value, str):
        m = _INTERVAL.fullmatch(value)
        if not m:
            raise ValueError(f"not a value or interval: {value!r}")
        if m.group(1):
            return int(m.group(1)), int(m.group(1))
        return int(m.group(2)), int(m.group(3))
    return value["lower"], value["upper"]


def check_op(op: Op, code, out: str, outputs: list[str]) -> Optional[str]:
    """None when the operation met its contract, else why it did not.
    ``outputs`` holds the stdout of every earlier operation of the pass."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        problem = _check_output(op, code, out, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return problem


def _check_output(op: Op, code: int, out: str, outputs: list[str]) -> Optional[str]:
    g = op.group
    payload = json.loads(out) if op.as_json and code == 0 else None
    if payload is not None and "group" in payload and payload["group"] != g.canonical():
        return f"group printed as {payload['group']!r}, expected {g.canonical()!r}"
    if op.command == "len":
        if (payload["length"] if payload else out) != (g.length if payload else f"{g.length}\n"):
            return f"length {out!r}, expected {g.length}"
    elif op.command in ("depth", "cd"):
        lo, hi = _bounds(payload[op.command] if payload else out.strip())
        if not 0 <= lo <= hi <= g.length:
            return f"{op.command} [{lo}, {hi}] outside [0, {g.length}]"
    elif op.command == "dims":
        got = (payload["dim"], payload["rank"]) if payload else out
        want = (g.dim, g.rank) if payload else f"dim {g.dim}  rank {g.rank}\n"
        if got != want:
            return f"dims {got!r}, expected {want!r}"
    elif op.command == "maximals":
        if payload:
            count, complete = len(payload["entries"]), payload["complete"]
            if payload["parent"] != g.canonical():
                return f"parent {payload['parent']!r}, expected {g.canonical()!r}"
        else:
            lines = out.splitlines()
            m = _MAXIMALS_FOOTER.fullmatch(lines[-1])
            if not m or int(m.group(1)) != len(lines) - 1:
                return "maximals footer does not count the entries"
            count, complete = len(lines) - 1, m.group(2) == "complete"
        if count < 1 or complete != g.curated:
            return f"{count} entries, complete={complete}, expected complete={g.curated}"
    elif op.command in ("chain-max", "chain-min"):
        if code:
            return "output on a refused chain" if out else None
        nodes = chain_nodes(out)
        if payload and payload["length"] != len(nodes) - 1:
            return "chain length field disagrees with its nodes"
        if nodes[0] != g.canonical() or nodes[-1] != "1":
            return f"chain runs {nodes[0]!r} .. {nodes[-1]!r}"
        if op.command == "chain-max" and len(nodes) != g.length + 1:
            return f"longest chain has {len(nodes)} nodes, expected len + 1 = {g.length + 1}"
    elif op.command == "verify-chain":
        steps = len(chain_nodes(outputs[op.source])) - 1
        if payload:
            overall, verdicts = payload["overall"], len(payload["verdicts"])
        else:
            lines = out.splitlines()
            overall, verdicts = lines[-1].split()[1], len(lines) - 1
        if overall not in ("valid", "valid-modulo-unknown") or verdicts != steps:
            return f"verify-chain says {overall} with {verdicts} verdicts for {steps} steps"
    elif op.command == "oracle":
        if payload:
            length, depth = payload["length"], payload["depth"]
        else:
            m = re.fullmatch(r"length (\d+)  depth (\d+)\n", out)
            length, depth = int(m.group(1)), int(m.group(2))
        if length != g.length or not 1 <= depth <= length:
            return f"oracle length {length} depth {depth}, expected length {g.length}"
    return None
