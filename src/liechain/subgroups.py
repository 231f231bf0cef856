"""Database of maximal connected subgroups, by group type.

For a classical simple group the candidates are generated from the parameter
families (reducible stabilizers, the half-rank Levi, tensor product
subgroups, and the symplectic/orthogonal subgroups of SU_n), plus a small
curated list of irreducible simple subgroups.  The exceptional groups carry
their fixed subgroup tables.  Each candidate is built once, unsorted: a
reducible entry of SU_n as one group of interned simple types, the others
from ``canonicalize``d factors whose products merge in one pass.  The
candidates are deduplicated, so e.g. the SO_4 subgroup of SU_4 and the 2x2
tensor subgroup collapse into one SU_2 x SU_2 entry.

The product rule ``maximal_steps(g)`` is the database's one interface.  The
oracle reads the steps of each curated simple type through it once, and
applies the same rule itself to multiplicity vectors.  Witness chains and
``is_maximal_step`` apply it to one step: they read, through
``simple_step_kind``, the step sequence of the one factor the step changes.
Each simple type's steps come from its step sequence: generated from the
families on demand, deduplicated in generation order, and kept as far as
generated, so a reader that stops at the step it needs generates nothing
past it.  ``maximal_connected(g)`` is the sorted, cached table of the
steps, read by ``maximals``, curated shortest chains and the uncached
oracle reference; for a bare simple type it generates the rest of the step
sequence in one call, not one step at a time.

Completeness is only claimed on a curated coverage set (the types whose
entire downward closure is certified); queries outside it still return
correct entries, flagged incomplete.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import Frozen, TrivialGroupError
from .groups import (
    _INTERNED,
    GroupType,
    SimpleType,
    _canonical,
    canonicalize,
    parse_group,
    simple,
)

YES, NO, UNKNOWN = "yes", "no", "unknown"

_KINDS = frozenset({
    "reducible", "levi", "classical-in-su", "tensor", "exceptional",
    "irreducible", "diagonal", "factor", "torus-drop",
})


class EmbeddingKind(Frozen):
    """Why a subgroup is maximal: one tagged case plus its parameters."""

    __slots__ = ("kind", "params")
    kind: str
    params: tuple[tuple[str, object], ...]

    def __init__(self, kind: str, params: tuple[tuple[str, object], ...] = ()):
        if kind not in _KINDS:
            raise ValueError(f"unknown embedding kind {kind!r}")
        _set_kind(self, kind)
        _set_params(self, params)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.params) == (other.kind, other.params)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.params))

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.json_params()}

    def json_params(self) -> dict:
        """The params as a JSON object, a factor step's kind as its own."""
        params = dict(self.params)
        if self.kind == "factor":  # the one kind with a kind among its params
            params["via"] = params["via"].to_json()
        return params

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        if len(self.params) == 1:
            (name, value), = self.params
            return f"{self.kind}({name}={value})"
        return f"{self.kind}({', '.join([f'{k}={v}' for k, v in self.params])})"

    # constructors for the individual cases
    @classmethod
    def reducible(cls, k: int) -> "EmbeddingKind":
        return _REDUCIBLE.get(k) or _REDUCIBLE.setdefault(k, cls("reducible", (("k", k),)))

    @classmethod
    def levi(cls) -> "EmbeddingKind":
        return cls("levi")

    @classmethod
    def classical_in_su(cls, family: str) -> "EmbeddingKind":
        return cls("classical-in-su", (("family", family),))

    @classmethod
    def tensor(cls, a: int, b: int) -> "EmbeddingKind":
        params: tuple = (("a", a), ("b", b))
        if a == b:
            params += (("symmetric", True),)
        return cls("tensor", params)

    @classmethod
    def exceptional(cls, row: str) -> "EmbeddingKind":
        return cls("exceptional", (("row", row),))

    @classmethod
    def irreducible(cls, source: str) -> "EmbeddingKind":
        return cls("irreducible", (("source", source),))

    @classmethod
    def diagonal(cls, factor: SimpleType) -> "EmbeddingKind":
        return cls("diagonal", (("factor", str(factor)),))

    @classmethod
    def factor(cls, index: int, via: "EmbeddingKind") -> "EmbeddingKind":
        return cls("factor", (("index", index), ("via", via)))

    @classmethod
    def torus_drop(cls) -> "EmbeddingKind":
        return cls("torus-drop")


# each slot's own setter, captured once: it writes the slot past Frozen.__setattr__
_set_kind, _set_params = EmbeddingKind.kind.__set__, EmbeddingKind.params.__set__
# the kind of the step H x T^z > H x T^(z-1), shared by every group with a
# torus; and k -> the kind of each reducible step, built on first use
TORUS_DROP = EmbeddingKind.torus_drop()
_REDUCIBLE: dict[int, EmbeddingKind] = {}


class MaximalEntry(NamedTuple):
    subgroup: GroupType
    kind: EmbeddingKind

    def to_json(self) -> dict:
        kind = self.kind
        return {"subgroup": str(self.subgroup), "kind": kind.kind, "params": kind.json_params()}


class CompletenessFlag(NamedTuple):
    complete: bool
    reason: str


# the types whose downward closure is fully certified
CURATED_SIMPLE = frozenset({
    SimpleType("SU", 2), SimpleType("SU", 3), SimpleType("SU", 4),
    SimpleType("SU", 5), SimpleType("SU", 6),
    SimpleType("Sp", 4), SimpleType("Sp", 6),
    SimpleType("SO", 7), SimpleType("SO", 8),
    SimpleType("G2"),
})


def is_curated(g: GroupType) -> bool:
    """True when every simple factor lies in the curated coverage set."""
    return all(s in CURATED_SIMPLE for s, _ in g.counts)


# maximal connected subgroups of the exceptional groups, one row per entry
_EXCEPTIONAL_TABLE = {
    "G2": ("SU(3)", "SU(2)^2", "SU(2)"),
    "F4": ("SO(9)", "Sp(6) x SU(2)", "SU(3)^2", "SU(2) x G2", "SU(2)"),
    "E6": ("SO(10) x T", "SU(6) x SU(2)", "SU(3)^3", "F4", "Sp(8)",
           "SU(3) x G2", "G2", "SU(3)"),
    "E7": ("SO(12) x SU(2)", "SU(6) x SU(3)", "SU(8)", "E6 x T",
           "G2 x Sp(6)", "F4 x SU(2)", "SU(2)^2", "SU(3)", "SU(2)"),
    "E8": ("E7 x SU(2)", "E6 x SU(3)", "SO(16)", "SU(9)", "SU(5)^2",
           "G2 x F4", "SU(3) x SU(2)", "SO(5)", "SU(2)"),
}


def _divisor_pairs(n: int) -> Iterable[tuple[int, int]]:
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d, n // d
        d += 1


def _candidates_su(n: int):
    # S(U_k x U_{n-k}) = SU_k x SU_{n-k} x T for 1 <= k <= n/2, built in
    # canonical order from the interned SU types and shared kinds, each read
    # from its table once it exists: SU_1 is trivial, so k = 1 gives
    # SU_{n-1} x T (T for n = 2), and n = 2k gives SU_k^2 x T
    su = _INTERNED["SU"]
    for k in range(1, n // 2 + 1):
        big = (su.get(n - k) or SimpleType("SU", n - k)) if n > 2 else None
        if k == 1:
            pairs = ((big, 1),) if big else ()
        elif 2 * k == n:
            pairs = ((big, 2),)
        else:
            pairs = ((su.get(k) or SimpleType("SU", k), 1), (big, 1))
        yield _canonical(1, pairs), _REDUCIBLE.get(k) or EmbeddingKind.reducible(k)
    # symplectic/orthogonal forms preserved inside SU_n
    if n >= 4 and n % 2 == 0:
        yield canonicalize("Sp", n), EmbeddingKind.classical_in_su("Sp")
    yield canonicalize("SO", n), EmbeddingKind.classical_in_su("SO")
    for a, b in _divisor_pairs(n):
        yield canonicalize("SU", a) * canonicalize("SU", b), EmbeddingKind.tensor(a, b)
    if n == 6:
        # SU_3 on the 6-dimensional symmetric square of its natural module
        yield simple("SU", 3), EmbeddingKind.irreducible("su3-sym2")


def _candidates_sp(n: int):
    for k in range(2, n // 2 + 1, 2):
        child = canonicalize("Sp", k) * canonicalize("Sp", n - k)
        yield child, EmbeddingKind.reducible(k)
    yield canonicalize("SU", n // 2).with_torus(1), EmbeddingKind.levi()
    for a in range(2, n, 2):
        if n % a == 0:
            b = n // a
            if b >= 3 and b != 4:
                yield canonicalize("Sp", a) * canonicalize("SO", b), EmbeddingKind.tensor(a, b)
    # the irreducible SU_2 on the n-dimensional symplectic module
    yield simple("SU", 2), EmbeddingKind.irreducible("principal-su2")


def _candidates_so(n: int):
    for k in range(1, n // 2 + 1):
        child = canonicalize("SO", k) * canonicalize("SO", n - k)
        yield child, EmbeddingKind.reducible(k)
    if n % 2 == 0:
        yield canonicalize("SU", n // 2).with_torus(1), EmbeddingKind.levi()
    for a, b in _divisor_pairs(n):
        if a >= 3 and a != 4 and b != 4:
            yield canonicalize("SO", a) * canonicalize("SO", b), EmbeddingKind.tensor(a, b)
        if a % 2 == 0 and b % 2 == 0:
            yield canonicalize("Sp", a) * canonicalize("Sp", b), EmbeddingKind.tensor(a, b)
    if n == 7:
        # G2 on its 7-dimensional natural module
        yield simple("G2"), EmbeddingKind.irreducible("g2-natural")
    if n == 8:
        # SU_3 on its 8-dimensional adjoint module
        yield simple("SU", 3), EmbeddingKind.irreducible("su3-adjoint")
    if n >= 9 and n % 2:
        # the irreducible SU_2 on the n-dimensional orthogonal module
        yield simple("SU", 2), EmbeddingKind.irreducible("principal-su2")


def _flag(g: GroupType) -> CompletenessFlag:
    """Certified complete when every simple factor lies in the curated
    coverage set; otherwise the reason names each factor outside it."""
    if is_curated(g):
        return CompletenessFlag(True, "curated coverage set")
    bad = [s for s, _ in g.counts if s not in CURATED_SIMPLE]
    return CompletenessFlag(False, "; ".join(f"outside curated coverage set: {s}" for s in bad))


def _finish(parent_dim: int, steps) -> tuple[MaximalEntry, ...]:
    """The steps of ``maximal_steps``, each checked to descend, ordered by
    size.  No type occurs twice, so none is dropped.  A simple type's steps
    come from ``_distinct``.  A step of a factor A removes one copy of A and
    adds none (a proper subgroup is smaller than A), while any other step
    keeps every copy of A; two steps of A differ in what replaced it.  A
    diagonal of A loses all of dim A, more than a step of A.  A torus drop
    keeps every factor, which every other step changes."""

    def order(entry: MaximalEntry) -> tuple:
        child = entry.subgroup
        dim = child.dim
        assert dim < parent_dim, f"non-descending entry {child}"
        return -dim, child.sort_key

    return tuple(sorted(map(MaximalEntry._make, steps), key=order))


def _candidates(s: SimpleType) -> Iterator[tuple[GroupType, EmbeddingKind]]:
    """The maximal subgroups of the simple group ``s`` with their kinds, as
    the families generate them, duplicates included."""
    if s.family == "SU":
        return _candidates_su(s.degree)
    if s.family == "Sp":
        return _candidates_sp(s.degree)
    if s.family == "SO":
        return _candidates_so(s.degree)
    return (
        (parse_group(spec), EmbeddingKind.exceptional(f"{s.family}.{i}"))
        for i, spec in enumerate(_EXCEPTIONAL_TABLE[s.family])
    )


def _distinct(s: SimpleType) -> Iterator[tuple[GroupType, EmbeddingKind]]:
    """``_candidates(s)`` deduplicated in generation order (the first kind
    that reaches a type wins); ``_finish`` checks that each descends."""
    seen = set()
    for child, kind in _candidates(s):
        size = len(seen)
        seen.add(child)  # one hash per candidate: the set grows on a new type
        if len(seen) > size:
            yield child, kind


# one thread at a time extends a step sequence, so readers in several
# threads see one order and never resume a generator that is running
_EXTENDING = threading.Lock()


class _StepSequence:
    """The steps of one simple type: ``_distinct`` generated on demand and
    kept as far as generated."""

    __slots__ = ("steps", "rest")

    def __init__(self, s: SimpleType):
        self.steps: list[tuple[GroupType, EmbeddingKind]] = []
        self.rest: Optional[Iterator[tuple[GroupType, EmbeddingKind]]] = _distinct(s)

    def __iter__(self) -> Iterator[tuple[GroupType, EmbeddingKind]]:
        # once every step is kept, a reader walks the list itself
        return iter(self.steps) if self.rest is None else self._extending()

    def _extending(self) -> Iterator[tuple[GroupType, EmbeddingKind]]:
        """The kept steps, then each further one generated and kept as it
        is asked for."""
        steps, i = self.steps, 0
        while True:
            if i == len(steps):
                with _EXTENDING:
                    if i == len(steps):
                        step = None if self.rest is None else next(self.rest, None)
                        if step is None:
                            self.rest = None
                            return
                        steps.append(step)
            yield steps[i]
            i += 1

    def generated(self) -> list[tuple[GroupType, EmbeddingKind]]:
        """Every step, in generation order: the rest generated and kept in
        one call, under one hold of the lock, where ``_extending`` takes the
        lock once per step.  Readers iterating meanwhile see the same list."""
        if self.rest is not None:
            with _EXTENDING:
                if self.rest is not None:
                    self.steps.extend(self.rest)
                    self.rest = None
        return self.steps


@lru_cache(maxsize=None)
def _step_sequence(s: SimpleType) -> _StepSequence:
    return _StepSequence(s)


def maximal_steps(g: GroupType) -> Iterator[tuple[GroupType, EmbeddingKind]]:
    """The product rule: each maximal connected subgroup type of ``g`` with
    the kind of its step, lazily.  A bare simple group steps along its step
    sequence; otherwise the torus drops one rank first, then each distinct
    factor steps along its step sequence, and a repeated factor also
    collapses by the diagonal.  No type is yielded twice (see ``_finish``)."""
    if g.is_trivial:
        raise TrivialGroupError("the trivial group has no maximal subgroups")
    if g.is_simple:
        yield from _step_sequence(g.simple_factor)
        return
    if g.torus_rank > 0:
        yield g.with_torus(-1), TORUS_DROP
    for index, (s, count) in enumerate(g.counts):
        for child, kind in _step_sequence(s):
            yield g.replace_one(s, child), EmbeddingKind.factor(index, kind)
        if count >= 2:
            yield g.drop_one(s), EmbeddingKind.diagonal(s)


@lru_cache(maxsize=None)
def maximal_connected(g: GroupType) -> tuple[tuple[MaximalEntry, ...], CompletenessFlag]:
    """The table of ``maximal_steps(g)``, ordered by size, with the
    completeness flag; a bare simple type's steps are read in one call.  The
    returned list is always a subset of the truth; the flag tells whether it
    is certified exhaustive."""
    steps = _step_sequence(g.simple_factor).generated() if g.is_simple else maximal_steps(g)
    return _finish(g.dim, steps), _flag(g)


def simple_step_kind(s: SimpleType, child: GroupType) -> Optional[EmbeddingKind]:
    """The kind of the step of the simple group ``s`` to ``child``, read
    from the step sequence of ``s`` as far as it reaches ``child``; None
    when ``child`` is not a step of ``s``."""
    return next((kind for step, kind in _step_sequence(s) if step == child), None)


def is_maximal_step(parent: GroupType, child: GroupType) -> str:
    """YES if ``child`` is a known maximal connected subgroup type of
    ``parent``, NO if absent from a certified-complete list, UNKNOWN if
    absent from an incomplete one."""
    if parent.is_trivial:
        return NO  # the trivial group has no proper subgroups
    if _is_step(parent, child):
        return YES
    return NO if is_curated(parent) else UNKNOWN


def _is_step(parent: GroupType, child: GroupType) -> bool:
    """Whether ``maximal_steps(parent)`` yields ``child``, from one
    factor's steps.  Besides the torus drop, a step replaces one copy of a
    factor S by a step of S, or by nothing (the diagonal), so S is the one
    factor the child has fewer copies of, by one."""
    z = child.torus_rank - parent.torus_rank
    if child.counts == parent.counts:
        return z == -1
    if parent.is_simple:
        return simple_step_kind(parent.counts[0][0], child) is not None
    if z < 0:
        return False
    change = dict(child.counts)
    for s, k in parent.counts:
        change[s] = change.get(s, 0) - k
    lost = [(s, k) for s, k in change.items() if k < 0]
    if len(lost) != 1 or lost[0][1] != -1:
        return False
    s = lost[0][0]
    remainder = _canonical(z, tuple((t, k) for t, k in change.items() if k > 0))
    if remainder.is_trivial:  # the diagonal, when a copy of S is left
        return len(child.counts) == len(parent.counts)
    return simple_step_kind(s, remainder) is not None


def query_json(g: GroupType) -> dict:
    """JSON payload for a maximal-subgroup query."""
    entries, flag = maximal_connected(g)
    return {
        "parent": str(g),
        "entries": [e.to_json() for e in entries],
        "complete": flag.complete,
        "reason": flag.reason,
    }
