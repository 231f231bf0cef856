"""Brute-force length and depth by memoized recursion over the
maximal-subgroup type graph.

The recursion is over canonical types: both invariants only depend on the
type, and every maximal step strictly decreases dimension, so a plain
memoized depth-first search terminates.  Reaching any node whose
maximal-subgroup list is not certified complete aborts the query; the
oracle never silently degrades into a bound.

The memo is keyed by the semisimple part alone (torus shift).  For z >= 1
the maximal connected subgroups of H x T^z are the torus drop H x T^(z-1)
and C x T^z for each maximal entry C of H (a factor step or a diagonal),
and the completeness flag depends only on the factors of H.  By induction
on dimension, with l(H) = 1 + max l(C) and depth(H) = 1 + min depth(C):

    l(H x T^z)     = 1 + max(l(H) + z - 1,     max l(C) + z)     = l(H) + z
    depth(H x T^z) = 1 + min(depth(H) + z - 1, min depth(C) + z) = depth(H) + z

(and T^z alone gives (z, z)).  So the cached path computes H once and adds
z back, and every ``maximal_connected`` query it makes is on a semisimple
type.  ``Oracle(cached=False)`` recurses over the full types instead, as
the independent reference for that argument.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import IncompleteDatabaseError
from .groups import GroupType
from .subgroups import maximal_connected


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
        z = g.torus_rank
        h = g.semisimple_part if z else g
        if h.is_trivial:
            return (z, z)
        hit = self.table.get(h)
        if hit is None:
            entries, flag = maximal_connected(h)
            if not flag.complete:
                raise IncompleteDatabaseError(g)
            lengths, depths = zip(*[self.compute(entry.subgroup) for entry in entries])
            hit = self.table[h] = (1 + max(lengths), 1 + min(depths))
        return (hit[0] + z, hit[1] + z)

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


_default = Oracle()


def oracle_length(g: GroupType) -> int:
    """1 + max over maximal connected subgroups, from the shared table."""
    return _default.length(g)


def oracle_depth(g: GroupType) -> int:
    """1 + min over maximal connected subgroups, from the shared table."""
    return _default.depth(g)


def cross_validate(scope) -> list[dict]:
    """Compare the closed forms against the brute force on each group in
    ``scope``; returns one record per group, with ``pass`` set when the
    lengths agree and the brute-force depth is consistent with (equal to,
    when exact) the formula depth."""
    from .formulas import depth, length

    records = []
    for g in scope:
        formula_l = length(g)
        formula_d = depth(g)
        brute_l, brute_d = _default.compute(g)
        ok = brute_l == formula_l and brute_d in formula_d
        if formula_d.is_exact:
            ok = ok and brute_d == formula_d.exact_value
        records.append({
            "group": str(g),
            "formula_l": formula_l,
            "oracle_l": brute_l,
            "formula_depth": formula_d.to_json(),
            "oracle_depth": brute_d,
            "pass": ok,
        })
    return records


def _raise_recursion_limit(limit: int = 10000) -> None:
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


_raise_recursion_limit()
