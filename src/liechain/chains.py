"""Explicit witness chains: longest chains for every canonical group,
shortest chains where the depth is known exactly, and verification of
arbitrary user-supplied chains against the subgroup database."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import MalformedTypeError
from .formulas import max_step_simple, min_step_simple
from .groups import GroupType, parse_group
from .oracle import oracle_depth
from .subgroups import (
    NO,
    UNKNOWN,
    EmbeddingKind,
    is_curated,
    is_maximal_step,
    maximal_connected,
    maximal_steps,
)


@dataclass(frozen=True, slots=True)
class Chain:
    """An unrefinable chain: nodes from the top group down to the trivial
    group, one embedding kind per step."""

    nodes: tuple[GroupType, ...]
    steps: tuple[EmbeddingKind, ...]

    def __post_init__(self):
        if not self.nodes or not self.nodes[-1].is_trivial:
            raise MalformedTypeError("chain must end at the trivial group")
        if len(self.steps) != len(self.nodes) - 1:
            raise MalformedTypeError("need exactly one step per adjacent pair")
        for parent, child in zip(self.nodes, self.nodes[1:]):
            if child.dim >= parent.dim:
                raise MalformedTypeError(
                    f"chain not strictly descending at {parent} > {child}")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def top(self) -> GroupType:
        return self.nodes[0]

    def to_json(self) -> dict:
        return {
            "nodes": [str(g) for g in self.nodes],
            "steps": [k.to_json() for k in self.steps],
            "length": len(self),
        }

    def __str__(self) -> str:
        return " > ".join(str(g) for g in self.nodes)


# -- witness chains ------------------------------------------------------------

def _descend(g: GroupType, pick: Callable[[GroupType], GroupType]) -> Chain:
    """The chain from ``g`` down to the trivial group that takes the child
    ``pick`` chooses at each node, with the database kind of each step."""
    nodes, steps = [g], []
    while not g.is_trivial:
        child = pick(g)
        kind = next((k for step, k in maximal_steps(g) if step == child), None)
        assert kind is not None, f"constructed step {g} > {child} not in database"
        nodes.append(child)
        steps.append(kind)
        g = child
    return Chain(tuple(nodes), tuple(steps))


def _max_pick(g: GroupType) -> GroupType:
    """Any torus drops first, then the first factor takes its longest step."""
    if g.torus_rank > 0:
        return GroupType(g.torus_rank - 1, g.counts)
    s = g.counts[0][0]
    return g.replace_one(s, max_step_simple(s))


def _min_pick(g: GroupType) -> GroupType:
    """For S^k x T^z: the diagonal collapses S^k to S, then S takes its
    shortest steps with the torus kept, and the torus drops last."""
    if not g.counts:
        return GroupType(g.torus_rank - 1)
    s, k = g.counts[0]
    if k > 1:
        return g.drop_one(s)
    return g.replace_one(s, min_step_simple(s))


def _curated_pick(g: GroupType) -> GroupType:
    """The first database entry whose brute-force depth is one less."""
    want = oracle_depth(g) - 1
    entries, _ = maximal_connected(g)
    return next(e.subgroup for e in entries if oracle_depth(e.subgroup) == want)


def max_chain(g: GroupType) -> Chain:
    """A longest unrefinable chain from ``g`` down to the trivial group;
    its length equals ``length(g)``.  Factors descend one at a time in
    canonical order; any torus present (central, or introduced by a Levi
    step) drops before the next factor step."""
    return _descend(g, _max_pick)


def min_chain(g: GroupType) -> Optional[Chain]:
    """A shortest unrefinable chain, of length exactly ``depth(g)``, when the
    depth is known exactly: tori, homogeneous powers of one simple type (plus
    torus), and groups inside the curated coverage set (where the brute force
    pins the depth).  Returns None otherwise."""
    if len(g.counts) <= 1:
        return _descend(g, _min_pick)
    if not is_curated(g):
        return None
    return _descend(g, _curated_pick)


# -- verification --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class VerifyReport:
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
    for i, (parent, child) in enumerate(zip(nodes, nodes[1:])):
        if child.dim >= parent.dim:
            return _invalid((), i, f"not strictly descending at step {i}")
    verdicts = []
    for parent, child in zip(nodes, nodes[1:]):
        verdicts.append(is_maximal_step(parent, child))
    failed = next((i for i, v in enumerate(verdicts) if v == NO), None)
    if failed is not None:
        return _invalid(verdicts, failed, f"step {failed} is not a maximal inclusion")
    unknown = tuple(i for i, v in enumerate(verdicts) if v == UNKNOWN)
    if unknown:
        return VerifyReport(tuple(verdicts), "valid-modulo-unknown", unknown_steps=unknown)
    return VerifyReport(tuple(verdicts), "valid")


def parse_chain_text(text: str) -> list[GroupType]:
    """One group spec per line, descending, trivial group ("1") last."""
    nodes = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            nodes.append(parse_group(line))
    return nodes
