"""Explicit witness chains: longest chains for every canonical group,
shortest chains where the depth is known exactly, and verification of
arbitrary user-supplied chains against the subgroup database."""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import Frozen, MalformedTypeError
from .formulas import depth, max_step_simple, min_step_simple
from .groups import GroupType, SimpleType, _canonical, _merged, parse_group
from .oracle import oracle_depth
from .subgroups import (
    NO,
    TORUS_DROP,
    UNKNOWN,
    EmbeddingKind,
    is_maximal_step,
    maximal_connected,
    simple_step_kind,
)

Step = tuple[GroupType, EmbeddingKind]


class Chain(Frozen):
    """An unrefinable chain: nodes from the top group down to the trivial
    group, one embedding kind per step."""

    __slots__ = ("nodes", "steps")
    nodes: tuple[GroupType, ...]
    steps: tuple[EmbeddingKind, ...]

    def __init__(self, nodes: tuple[GroupType, ...], steps: tuple[EmbeddingKind, ...]):
        if not nodes or not nodes[-1].is_trivial:
            raise MalformedTypeError("chain must end at the trivial group")
        if len(steps) != len(nodes) - 1:
            raise MalformedTypeError("need exactly one step per adjacent pair")
        for i, (above, below) in enumerate(pairwise(g.dim for g in nodes)):
            if below >= above:
                raise MalformedTypeError(
                    f"chain not strictly descending at {nodes[i]} > {nodes[i + 1]}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nodes, self.steps) == (other.nodes, other.steps)
        return NotImplemented

    def __hash__(self):
        return hash((self.nodes, self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "nodes": [str(g) for g in self.nodes],
            "steps": [k.to_json() for k in self.steps],
            "length": len(self),
        }

    def __str__(self) -> str:
        return " > ".join(str(g) for g in self.nodes)


# -- witness chains ------------------------------------------------------------

def _descend(g: GroupType, pick: Callable[[GroupType], Step]) -> Chain:
    """The chain from ``g`` down to the trivial group that takes the child
    ``pick`` chooses at each node, with the database kind of that step."""
    nodes, steps = [g], []
    while not g.is_trivial:
        g, kind = pick(g)
        nodes.append(g)
        steps.append(kind)
    return Chain(tuple(nodes), tuple(steps))


# the (step, kind) of each simple type's longest and of its shortest table
# step, by type: read on a chain's first step of that type
_LONGEST_STEPS: dict[SimpleType, Step] = {}
_SHORTEST_STEPS: dict[SimpleType, Step] = {}


@lru_cache(maxsize=None)
def _first_factor(kind: EmbeddingKind) -> EmbeddingKind:
    """The kind of a product's step that steps its first factor by
    ``kind``, built once per kind."""
    return EmbeddingKind.factor(0, kind)


def _factor_step(g: GroupType, table: Callable[[SimpleType], GroupType],
                 read: dict[SimpleType, Step]) -> Step:
    """The step of ``g`` that replaces one copy of its first factor S by
    the step ``table`` gives S: the other pairs of ``g`` merged with the
    pairs of that step.  ``read`` keeps that step of S and its kind from
    the step sequence of S, so each is read once per type."""
    counts = g.counts
    s, k = counts[0]
    entry = read.get(s)
    if entry is None:
        step = table(s)
        kind = simple_step_kind(s, step)
        assert kind is not None, f"constructed step {s} > {step} not in database"
        entry = read[s] = step, kind
    if g.is_simple:
        return entry
    step, kind = entry
    rest = counts[1:] if k == 1 else ((s, k - 1), *counts[1:])
    return (_canonical(g.torus_rank + step.torus_rank, _merged(step.counts, rest)),
            _first_factor(kind))


def _max_pick(g: GroupType) -> Step:
    """Any torus drops first, then the first factor takes its longest step."""
    if g.torus_rank > 0:
        return g.with_torus(-1), TORUS_DROP
    return _factor_step(g, max_step_simple, _LONGEST_STEPS)


def _min_pick(g: GroupType) -> Step:
    """For S^k x T^z: the diagonal collapses S^k to S, then S takes its
    shortest steps with the torus kept, and the torus drops last."""
    if not g.counts:
        return g.with_torus(-1), TORUS_DROP
    s, k = g.counts[0]
    if k > 1:
        return g.drop_one(s), EmbeddingKind.diagonal(s)
    return _factor_step(g, min_step_simple, _SHORTEST_STEPS)


def _curated_pick(g: GroupType) -> Step:
    """The first database entry whose brute-force depth is one less."""
    want = oracle_depth(g) - 1
    entries, _ = maximal_connected(g)
    entry = next(e for e in entries if oracle_depth(e.subgroup) == want)
    return entry.subgroup, entry.kind


def max_chain(g: GroupType) -> Chain:
    """A longest unrefinable chain from ``g`` down to the trivial group;
    its length equals ``length(g)``.  Factors descend one at a time in
    canonical order; any torus present (central, or introduced by a Levi
    step) drops before the next factor step."""
    return _descend(g, _max_pick)


def min_chain(g: GroupType) -> Optional[Chain]:
    """A shortest unrefinable chain, of length exactly ``depth(g)``, when
    ``depth(g, refine=True)`` is exact; None otherwise.  One simple type
    (plus torus) descends by the step tables, a mixed product by the
    brute-force depth of the database entries."""
    if not depth(g, refine=True).is_exact:
        return None
    return _descend(g, _min_pick if len(g.counts) <= 1 else _curated_pick)


# -- verification --------------------------------------------------------------

class VerifyReport(NamedTuple):
    """Step-by-step maximality verdicts for a chain."""

    verdicts: tuple[str, ...]
    overall: str  # "valid" | "invalid" | "valid-modulo-unknown"
    failed_step: Optional[int] = None
    unknown_steps: tuple[int, ...] = ()
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.overall != "invalid"

    def to_json(self) -> dict:
        out: dict = {"verdicts": list(self.verdicts), "overall": self.overall}
        if self.failed_step is not None:
            out["failed_step"] = self.failed_step
        if self.unknown_steps:
            out["unknown_steps"] = list(self.unknown_steps)
        if self.reason:
            out["reason"] = self.reason
        return out


def _invalid(verdicts: Iterable[str], step: Optional[int], reason: str) -> VerifyReport:
    return VerifyReport(tuple(verdicts), "invalid", failed_step=step, reason=reason)


def verify_chain(chain: Union[Chain, Sequence[GroupType]]) -> VerifyReport:
    """Check that every adjacent pair is a known maximal step.  Accepts a
    Chain or a bare node sequence (e.g. parsed from a chain file)."""
    nodes = tuple(chain.nodes if isinstance(chain, Chain) else chain)
    if len(nodes) < 1:
        return _invalid((), None, "empty chain")
    if not nodes[-1].is_trivial:
        return _invalid((), None, "chain must end at the trivial group")
    for i, (above, below) in enumerate(pairwise(g.dim for g in nodes)):
        if below >= above:
            return _invalid((), i, f"not strictly descending at step {i}")
    verdicts = [is_maximal_step(parent, child) for parent, child in zip(nodes, nodes[1:])]
    failed = next((i for i, v in enumerate(verdicts) if v == NO), None)
    if failed is not None:
        return _invalid(verdicts, failed, f"step {failed} is not a maximal inclusion")
    unknown = tuple(i for i, v in enumerate(verdicts) if v == UNKNOWN)
    if unknown:
        return VerifyReport(tuple(verdicts), "valid-modulo-unknown", unknown_steps=unknown)
    return VerifyReport(tuple(verdicts), "valid")


def parse_chain_text(text: str) -> list[GroupType]:
    """One group spec per line, descending, trivial group ("1") last."""
    return [parse_group(line) for line in map(str.strip, text.splitlines()) if line]
