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
z back; it reads the steps of semisimple types (``maximal_steps``) and
builds no ``maximal_connected`` table.  ``Oracle(cached=False)`` recurses
over the full types and their tables instead, as the independent reference
for that argument; it walks every chain, so it only serves small groups,
and its recursion depth is at most l(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IncompleteDatabaseError
from .groups import GroupType
from .subgroups import is_curated, maximal_connected, maximal_steps


@dataclass
class Oracle:
    """Shared memo table mapping canonical semisimple types to (length, depth).

    Lookups and inserts are plain dict operations (atomic under the GIL);
    recomputing a node concurrently is harmless because results are
    deterministic.  With ``cached=False`` every call recomputes from
    scratch over the full type, torus included, which is exponentially
    slower but must agree.
    """

    cached: bool = True
    table: dict[GroupType, tuple[int, int]] = field(default_factory=dict)

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
        table = self.table

        def frame(node: GroupType):
            h, _ = _split(node)
            if not is_curated(h):
                raise IncompleteDatabaseError(node)
            children = [(child, *_split(child)) for child, _ in maximal_steps(h)]
            return h, children, iter(children)

        stack = [frame(g)]
        while stack:
            h, children, todo = stack[-1]
            for child, k, _ in todo:
                if not k.is_trivial and k not in table:
                    stack.append(frame(child))
                    break
            else:
                stack.pop()
                lengths, depths = [], []
                for _, k, z in children:
                    l, d = (0, 0) if k.is_trivial else table[k]
                    lengths.append(l + z)
                    depths.append(d + z)
                table[h] = (1 + max(lengths), 1 + min(depths))

    def _plain(self, g: GroupType) -> tuple[int, int]:
        """The recursion over the full type, torus included, with no memo."""
        if g.is_trivial:
            return (0, 0)
        entries, flag = maximal_connected(g)
        if not flag.complete:
            raise IncompleteDatabaseError(g)
        best_len = 0
        best_depth = None
        for entry in entries:
            sub_len, sub_depth = self._plain(entry.subgroup)
            best_len = max(best_len, sub_len)
            best_depth = sub_depth if best_depth is None else min(best_depth, sub_depth)
        return (1 + best_len, 1 + best_depth)

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
