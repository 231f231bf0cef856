"""Brute-force length and depth by memoized recursion over the
maximal-subgroup type graph.

The recursion is over canonical types: both invariants only depend on the
type, and every maximal step strictly decreases dimension, so a plain
memoized depth-first search terminates.  The search keeps its own stack,
so chains of any length stay clear of the interpreter's recursion limit.
Reaching any node whose maximal-subgroup list is not certified complete
aborts the query; the oracle never silently degrades into a bound.

The memo is keyed by the semisimple part alone (torus shift).  For z >= 1
the maximal connected subgroups of H x T^z are the torus drop H x T^(z-1)
and C x T^z for each maximal entry C of H (a factor step or a diagonal),
and the completeness flag depends only on the factors of H.  By induction
on dimension, with l(H) = 1 + max l(C) and depth(H) = 1 + min depth(C):

    l(H x T^z)     = 1 + max(l(H) + z - 1,     max l(C) + z)     = l(H) + z
    depth(H x T^z) = 1 + min(depth(H) + z - 1, min depth(C) + z) = depth(H) + z

(and T^z alone gives (z, z)).  So the cached path computes H once and adds
z back.

The curated coverage set is downward closed, so every semisimple node
below a curated query is a multiplicity vector over the ten curated simple
types, in canonical order, and the search walks those vectors.  On its
first search it reads each curated type's steps once from
``maximal_steps`` and keeps, for each step, the change it makes to the
vector (one copy of the type removed, the step's factors added) and the
rank of the torus it adds.  It then applies the product rule of
``maximal_steps`` to vectors: at a node, each step of each factor present
replaces one copy of that factor, a repeated factor also collapses by its
diagonal (one copy removed), and a semisimple node has no torus to drop.
A child is the node's vector plus a step's change, so no ``GroupType`` is
built per step.  A vector is packed into one int, one field per type, each
wide enough for any multiplicity below the query (see ``_Vectors``).

``Oracle.table`` maps each semisimple node the search has finished,
as a ``GroupType``, to its (length, depth).  ``Oracle(cached=False)``
recurses over the full types and their ``maximal_connected`` tables
instead, as the independent reference for the torus shift and the vector
walk; it walks every chain, so it only serves small groups, and its
recursion depth is at most l(G).
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable, Optional

from .errors import IncompleteDatabaseError
from .groups import GroupType, SimpleType, _canonical
from .subgroups import CURATED_SIMPLE, is_curated, maximal_connected, maximal_steps

# coordinate i of a memo vector is the multiplicity of _CURATED[i]
_CURATED = tuple(sorted(CURATED_SIMPLE, key=lambda s: s.sort_key))
_INDEX = {s: i for i, s in enumerate(_CURATED)}
# the narrowest vector field: wide enough for every query up to dim 191, so
# sweeps of that range never widen the fields and re-key the memo
_MIN_BITS = 6


class _Pairs(dict):
    """The (type, multiplicity) pairs of one type, by multiplicity: one tuple
    each, shared by every memoized ``GroupType`` that has it."""

    __slots__ = ("s",)

    def __init__(self, s: SimpleType):
        super().__init__()
        self.s = s

    def __missing__(self, k: int) -> tuple[SimpleType, int]:
        pair = self[k] = (self.s, k)
        return pair


class _Vectors:
    """The memo over packed multiplicity vectors at one field width.

    A vector ``v`` is the int ``sum(v[i] << bits * i)``.  Packing is linear,
    so a child's key is its parent's key plus the step's packed change, as
    long as every coordinate of every node fits its field.  It does when
    ``2 ** bits`` exceeds ``dim H // 3`` for the query ``H``: a node below
    ``H`` has dimension at most ``dim H``, and every curated type has
    dimension at least 3 (``SU(2)``), so no multiplicity exceeds
    ``dim H // 3``.
    """

    __slots__ = ("bits", "values", "steps", "units", "pairs")

    def __init__(self, bits: int, old: Optional["_Vectors"]):
        self.bits = bits
        self.units = tuple(1 << bits * i for i in range(len(_CURATED)))
        self.steps = tuple(self._steps(s) for s in _CURATED)
        self.pairs = tuple(_Pairs(s) for s in _CURATED)
        # the trivial group, below every node
        self.values: dict[int, tuple[int, int]] = {0: (0, 0)}
        if old is not None:
            for key, value in old.values.items():
                self.values[self.pack(zip(_CURATED, old.unpack(key)))] = value

    def _steps(self, s: SimpleType) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The steps of ``s``: their packed changes, and their torus ranks."""
        deltas, ranks = [], []
        for child, _ in maximal_steps(GroupType(0, ((s, 1),))):
            assert all(t in _INDEX for t, _ in child.counts), (
                f"{s} steps outside the curated set to {child}")
            deltas.append(self.pack(child.counts) - self.units[_INDEX[s]])
            ranks.append(child.torus_rank)
        return tuple(deltas), tuple(ranks)

    def pack(self, counts: Iterable[tuple[SimpleType, int]]) -> int:
        """The key of the vector with these (type, multiplicity) pairs."""
        return sum(k << self.bits * _INDEX[s] for s, k in counts)

    def unpack(self, key: int) -> list[int]:
        """The multiplicities of ``_CURATED`` in the vector ``key``."""
        mask, bits = (1 << self.bits) - 1, self.bits
        return [key >> bits * i & mask for i in range(len(_CURATED))]


class Oracle:
    """Shared memo table mapping canonical semisimple types to (length, depth).

    Lookups and inserts are plain dict operations (atomic under the GIL);
    recomputing a node concurrently is harmless because results are
    deterministic, and a search that widens the vector fields starts a new
    vector memo rather than changing the one another search reads.  With
    ``cached=False`` every call recomputes from scratch over the full type,
    torus included, which is exponentially slower but must agree.
    """

    __slots__ = ("cached", "table", "_vectors")
    cached: bool
    table: dict[GroupType, tuple[int, int]]
    _vectors: Optional[_Vectors]

    def __init__(self, cached: bool = True):
        self.cached = cached
        self.table = {}
        self._vectors = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cached, self.table) == (other.cached, other.table)
        return NotImplemented

    __hash__ = None  # a mutable memo

    def __repr__(self) -> str:
        return f"Oracle(cached={self.cached!r}, table={self.table!r})"

    def compute(self, g: GroupType) -> tuple[int, int]:
        if not self.cached:
            return self._plain(g)
        h, z = _split(g)
        if h.is_trivial:
            return (z, z)
        hit = self.table.get(h)
        if hit is None:
            self._fill(g)
            hit = self.table[h]
        return (hit[0] + z, hit[1] + z)

    def _fill(self, g: GroupType) -> None:
        """Memoize the semisimple part of ``g`` and every node below it.

        Depth first in step order, as the recursion would go, but on an
        explicit stack, so no chain length can exhaust the interpreter's
        recursion limit.  The curated coverage set is downward closed, so
        only the queried node can be incomplete; it is raised under its
        full type, torus included.
        """
        h, _ = _split(g)
        if not is_curated(h):
            raise IncompleteDatabaseError(g)
        bits = max(_MIN_BITS, (h.dim // 3).bit_length())
        vectors = self._vectors
        if vectors is None or vectors.bits < bits:
            vectors = self._vectors = _Vectors(bits, vectors)
        values, steps, units, pairs = vectors.values, vectors.steps, vectors.units, vectors.pairs
        unpack = vectors.unpack
        table = self.table

        def frame(key: int):
            counts = unpack(key)
            keys, zs = [], []
            for i, c in enumerate(counts):
                if c:
                    deltas, ranks = steps[i]
                    keys += [key + delta for delta in deltas]
                    zs += ranks
                    if c > 1:
                        keys.append(key - units[i])
                        zs.append(0)
            return key, counts, keys, zs, filterfalse(values.__contains__, keys)

        stack = [frame(vectors.pack(h.counts))]
        while stack:
            key, counts, keys, zs, pending = stack[-1]
            child = next(pending, None)
            if child is not None:
                stack.append(frame(child))
                continue
            stack.pop()
            got = [values[child] for child in keys]
            value = values[key] = (1 + max([l + z for (l, _), z in zip(got, zs)]),
                                   1 + min([d + z for (_, d), z in zip(got, zs)]))
            table[_canonical(0, tuple(pairs[i][c] for i, c in enumerate(counts) if c))] = value

    def _plain(self, g: GroupType) -> tuple[int, int]:
        """The recursion over the full type, torus included, with no memo."""
        if g.is_trivial:
            return (0, 0)
        entries, flag = maximal_connected(g)
        if not flag.complete:
            raise IncompleteDatabaseError(g)
        below = [self._plain(entry.subgroup) for entry in entries]
        return (1 + max([l for l, _ in below]), 1 + min([d for _, d in below]))

    def length(self, g: GroupType) -> int:
        return self.compute(g)[0]

    def depth(self, g: GroupType) -> int:
        return self.compute(g)[1]


def _split(g: GroupType) -> tuple[GroupType, int]:
    """The semisimple part of ``g`` and its torus rank."""
    z = g.torus_rank
    return (g.semisimple_part if z else g), z


_default = Oracle()


def oracle_length(g: GroupType) -> int:
    """1 + max over maximal connected subgroups, from the shared table."""
    return _default.length(g)


def oracle_depth(g: GroupType) -> int:
    """1 + min over maximal connected subgroups, from the shared table."""
    return _default.depth(g)
