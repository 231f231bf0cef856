import hashlib
import json
import sys
import threading
from collections import Counter
from itertools import islice

import pytest

from liechain import chains, subgroups
from liechain.chains import max_chain, min_chain, verify_chain
from liechain.errors import TrivialGroupError
from liechain.formulas import f_classical, length, length_simple
from liechain.groups import (
    TRIVIAL,
    GroupType,
    SimpleType,
    canonicalize,
    iter_groups,
    iter_simple_types,
    parse_group,
    simple,
    torus,
)
from liechain.oracle import oracle_depth
from liechain.subgroups import (
    CURATED_SIMPLE,
    NO,
    UNKNOWN,
    YES,
    CompletenessFlag,
    EmbeddingKind,
    MaximalEntry,
    _candidates,
    _finish,
    _step_sequence,
    _StepSequence,
    is_curated,
    is_maximal_step,
    maximal_connected,
    maximal_steps,
    query_json,
)
from liechain.suites import min_irrep_dim


def _types(entries):
    return {str(e.subgroup) for e in entries}


def test_g2_row():
    entries, flag = maximal_connected(simple("G2"))
    assert _types(entries) == {"SU(3)", "SU(2)^2", "SU(2)"}
    assert flag.complete


def test_su2():
    entries, flag = maximal_connected(simple("SU", 2))
    assert _types(entries) == {"T"}
    assert flag.complete


def test_su4_with_coincidence_dedup():
    entries, flag = maximal_connected(simple("SU", 4))
    assert _types(entries) == {"SU(3) x T", "SU(2)^2 x T", "Sp(4)", "SU(2)^2"}
    assert flag.complete
    # the 2x2 tensor square collapses onto the orthogonal subgroup: one entry
    assert len(entries) == len({e.subgroup for e in entries})


def test_so7():
    entries, flag = maximal_connected(simple("SO", 7))
    assert _types(entries) == {"SU(4)", "Sp(4) x T", "SU(2)^3", "G2"}
    assert flag.complete


def test_so8_has_adjoint_su3():
    entries, flag = maximal_connected(simple("SO", 8))
    assert _types(entries) == {"SO(7)", "SU(4) x T", "SU(2) x Sp(4)", "SU(2)^4", "SU(3)"}
    assert flag.complete


def test_sp6():
    entries, _ = maximal_connected(simple("Sp", 6))
    assert _types(entries) == {"SU(2) x Sp(4)", "SU(3) x T", "SU(2)^2", "SU(2)"}


def test_non_curated_flag():
    _, flag = maximal_connected(simple("SO", 9))
    assert not flag.complete
    assert "SO(9)" in flag.reason


def test_product_rules():
    entries, flag = maximal_connected(parse_group("T^3"))
    assert _types(entries) == {"T^2"} and flag.complete

    entries, flag = maximal_connected(parse_group("SU(2)^2"))
    assert _types(entries) == {"SU(2) x T", "SU(2)"}
    kinds = {str(e.subgroup): e.kind.kind for e in entries}
    assert kinds["SU(2)"] == "diagonal"
    assert kinds["SU(2) x T"] == "factor"

    entries, flag = maximal_connected(parse_group("SU(3) x T"))
    assert _types(entries) == {"SU(3)", "SU(2) x T^2", "SU(2) x T"}
    assert flag.complete


def test_trivial_group_error():
    with pytest.raises(TrivialGroupError):
        maximal_connected(parse_group("1"))
    with pytest.raises(TrivialGroupError):
        next(maximal_steps(TRIVIAL))


def _first_kinds(s):
    """The raw candidates of ``s`` deduplicated, the first kind winning."""
    first = {}
    for child, kind in _candidates(s):
        first.setdefault(child, kind)
    return list(first.items())


def _first_raw_kind(g, child):
    """The kind the table of ``g`` gives ``child``: that of the first step
    reaching it when the product rule runs over the raw candidates, before
    any deduplication."""
    def steps():
        if g.is_simple:
            yield from _candidates(g.simple_factor)
            return
        if g.torus_rank:
            yield GroupType(g.torus_rank - 1, g.counts), EmbeddingKind.torus_drop()
        for index, (s, count) in enumerate(g.counts):
            for sub, kind in _candidates(s):
                yield g.replace_one(s, sub), EmbeddingKind.factor(index, kind)
            if count >= 2:
                yield g.drop_one(s), EmbeddingKind.diagonal(s)
    return next(kind for step, kind in steps() if step == child)


def test_table_is_the_finished_step_rule():
    groups = [g for g in iter_groups(30) if is_curated(g)]
    groups += [parse_group(spec) for spec in ("SU(7) x SU(2)^2 x T", "E8 x SO(9)", "Sp(8)^2")]
    for g in groups:
        assert _finish(g.dim, maximal_steps(g)) == maximal_connected(g)[0], g
    # _finish drops nothing: the product rule never yields one type twice
    for g in [*iter_groups(40), *groups]:
        steps = [step for step, _ in maximal_steps(g)]
        assert len(set(steps)) == len(steps), g
    # highly composite degrees give the tensor candidates many divisor pairs
    simples = [GroupType(0, ((s, 1),)) for s in iter_simple_types(max_degree=60)]
    simples += [parse_group(spec) for spec in ("SU(360)", "Sp(720)", "SO(720)")]
    _step_sequence.cache_clear()
    for g in simples:
        # one reader stops after a step while another generates the rest
        reader, other = maximal_steps(g), maximal_steps(g)
        head = next(reader)
        assert list(other) == [head, *reader] == _first_kinds(g.simple_factor), g
        assert _finish(g.dim, maximal_steps(g)) == maximal_connected(g)[0], g


def _product(*groups):
    """A product built by the sorting constructor, the reference for ``*``."""
    return GroupType(sum(g.torus_rank for g in groups), tuple(p for g in groups for p in g.counts))


def _divisor_pairs(n):
    return [(d, n // d) for d in range(2, int(n ** 0.5) + 1) if n % d == 0]


def _reference_candidates(s):
    """The classical candidate families as first written, every product
    sorted by the constructor: the reference for ``_candidates``."""
    n, c = s.degree, canonicalize
    if s.family == "SU":
        for k in range(1, n // 2 + 1):
            yield _product(c("SU", k), c("SU", n - k), torus(1)), EmbeddingKind.reducible(k)
        if n >= 4 and n % 2 == 0:
            yield c("Sp", n), EmbeddingKind.classical_in_su("Sp")
        yield c("SO", n), EmbeddingKind.classical_in_su("SO")
        for a, b in _divisor_pairs(n):
            yield _product(c("SU", a), c("SU", b)), EmbeddingKind.tensor(a, b)
        if n == 6:
            yield simple("SU", 3), EmbeddingKind.irreducible("su3-sym2")
    elif s.family == "Sp":
        for k in range(2, n // 2 + 1, 2):
            yield _product(c("Sp", k), c("Sp", n - k)), EmbeddingKind.reducible(k)
        yield _product(c("SU", n // 2), torus(1)), EmbeddingKind.levi()
        for a in range(2, n, 2):
            if n % a == 0 and n // a >= 3 and n // a != 4:
                yield _product(c("Sp", a), c("SO", n // a)), EmbeddingKind.tensor(a, n // a)
        yield simple("SU", 2), EmbeddingKind.irreducible("principal-su2")
    else:
        for k in range(1, n // 2 + 1):
            yield _product(c("SO", k), c("SO", n - k)), EmbeddingKind.reducible(k)
        if n % 2 == 0:
            yield _product(c("SU", n // 2), torus(1)), EmbeddingKind.levi()
        for a, b in _divisor_pairs(n):
            if a >= 3 and a != 4 and b != 4:
                yield _product(c("SO", a), c("SO", b)), EmbeddingKind.tensor(a, b)
            if a % 2 == 0 and b % 2 == 0:
                yield _product(c("Sp", a), c("Sp", b)), EmbeddingKind.tensor(a, b)
        if n == 7:
            yield simple("G2"), EmbeddingKind.irreducible("g2-natural")
        if n == 8:
            yield simple("SU", 3), EmbeddingKind.irreducible("su3-adjoint")
        if n >= 9 and n % 2:
            yield simple("SU", 2), EmbeddingKind.irreducible("principal-su2")


def _reference_table(s):
    """The table as first built: candidates deduplicated, the first kind
    winning, each checked to descend, then sorted by size and factor keys."""
    first = {}
    for child, kind in _reference_candidates(s):
        assert child.torus_rank + sum(t.dim * k for t, k in child.counts) < s.dim, child
        first.setdefault(child, kind)

    def order(item):
        g = item[0]
        return (-(g.torus_rank + sum(t.dim * k for t, k in g.counts)),
                tuple(key for t, k in g.counts for key in (t.sort_key,) * k), g.torus_rank)

    return tuple(MaximalEntry(child, kind) for child, kind in sorted(first.items(), key=order))


def test_tables_match_the_reference_generators():
    types = [s for s in iter_simple_types(max_degree=150) if s.is_classical]
    types += [SimpleType("SU", 3001), SimpleType("Sp", 3000), SimpleType("SO", 3001)]
    for s in types:
        entries, flag = maximal_connected(GroupType(0, ((s, 1),)))
        assert entries == _reference_table(s), s
        assert all(e.subgroup.counts == GroupType(0, e.subgroup.counts).counts for e in entries)
        assert flag == (CompletenessFlag(True, "curated coverage set") if s in CURATED_SIMPLE
                        else CompletenessFlag(False, f"outside curated coverage set: {s}"))


def test_su_candidates_match_the_product_construction():
    # each reducible entry of SU(n) is built in one piece, SU(1) = 1 (k = 1,
    # and T at n = 2) and SU(k)^2 (n = 2k) included: every candidate, its
    # kind and its place equal the product of canonical factors with a torus
    # and the reference generator
    for n in range(2, 301):
        built = list(_candidates(SimpleType("SU", n)))
        products = [((canonicalize("SU", k) * canonicalize("SU", n - k)).with_torus(1),
                     EmbeddingKind.reducible(k)) for k in range(1, n // 2 + 1)]
        assert built[:len(products)] == products, n
        assert built == list(_reference_candidates(SimpleType("SU", n))), n
    assert list(_candidates(SimpleType("SU", 2)))[0] == (torus(1), EmbeddingKind.reducible(1))


def test_cold_table_sorts_no_group_and_reads_each_dim_once(monkeypatch):
    # every candidate is built from canonical pieces, none by the sorting
    # constructor, and each entry's dim is read once, where it is ordered
    g = simple("SU", 1201)
    canonicalize.cache_clear()
    _step_sequence.cache_clear()
    maximal_connected.cache_clear()
    constructed, dim_reads = [], Counter()
    init, dim = GroupType.__init__, GroupType.dim

    def counted_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    def counted_dim(self):
        dim_reads[self] += 1
        return dim.fget(self)

    monkeypatch.setattr(GroupType, "__init__", counted_init)
    monkeypatch.setattr(GroupType, "dim", property(counted_dim))
    entries, _ = maximal_connected(g)
    assert len(entries) == 601  # 600 reducible, SO(1201); 1201 is prime
    assert constructed == []
    assert dim_reads == Counter([g, *(e.subgroup for e in entries)])


def test_reducible_kinds_are_shared_and_equal_fresh_ones():
    for k in range(1, 40):
        shared, fresh = EmbeddingKind.reducible(k), EmbeddingKind("reducible", (("k", k),))
        assert shared is EmbeddingKind.reducible(k)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert (repr(shared), str(shared)) == (repr(fresh), str(fresh)) == (
            f"EmbeddingKind(kind='reducible', params=(('k', {k}),))", f"reducible(k={k})")
        assert shared.to_json() == fresh.to_json() == {"kind": "reducible", "params": {"k": k}}


def test_shared_kinds_give_the_tables_of_fresh_kinds(monkeypatch):
    # the reference tables are built with a fresh kind per reducible entry
    fresh = classmethod(lambda cls, k: cls("reducible", (("k", k),)))
    for n in [*range(2, 61), 1499]:
        with monkeypatch.context() as patch:
            patch.setattr(EmbeddingKind, "reducible", fresh)
            reference = _reference_table(SimpleType("SU", n))
        entries, _ = maximal_connected(simple("SU", n))
        assert entries == reference, n
        assert [str(e.kind) for e in entries] == [str(e.kind) for e in reference], n
        assert all(e.kind is EmbeddingKind.reducible(dict(e.kind.params)["k"])
                   for e in entries if e.kind.kind == "reducible"), n


def test_threads_reading_one_step_sequence_see_one_order():
    g = parse_group("SU(720)")
    expected = _first_kinds(g.simple_factor)
    _step_sequence.cache_clear()
    results = []

    def read():
        results.append(list(maximal_steps(g)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)


def _rendered(entries):
    return [(e.subgroup, e.kind, str(e.kind), e.to_json()) for e in entries]


def test_bulk_and_lazy_reads_give_one_table():
    # a table generates a simple type's remaining steps in one call, while a
    # chain reads the first few lazily (chain --max stops at its step); cold,
    # after such a partial read and after a full lazy read, the table is the
    # same, entry for entry and kind for kind, and a reader suspended before
    # the bulk read goes on along the same list
    types = [s for s in iter_simple_types(max_degree=60) if s.is_classical]
    for s in [*types, SimpleType("SU", 1201)]:
        g = GroupType(0, ((s, 1),))
        steps = _first_kinds(s)
        reference = _rendered(_finish(g.dim, steps))
        for read in ("cold", "partial", "full"):
            _step_sequence.cache_clear()
            maximal_connected.cache_clear()
            reader = maximal_steps(g)
            head = [] if read == "cold" else list(islice(reader, 1 + s.degree % 3))
            if read == "full":
                head += reader
            assert _rendered(maximal_connected(g)[0]) == reference, (s, read)
            # every step is kept, so later readers walk the list itself
            assert _step_sequence(s).rest is None, (s, read)
            assert head + list(reader) == _step_sequence(s).steps == steps, (s, read)
    _step_sequence.cache_clear()
    maximal_connected.cache_clear()


def test_a_cold_table_takes_the_step_lock_once(monkeypatch):
    # the bulk read holds the lock once for the whole table, where a lazy
    # read takes it once per generated step
    class Counted:
        def __init__(self):
            self.lock, self.holds = threading.Lock(), 0

        def __enter__(self):
            self.holds += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    counted = Counted()
    monkeypatch.setattr(subgroups, "_EXTENDING", counted)
    _step_sequence.cache_clear()
    maximal_connected.cache_clear()
    entries, _ = maximal_connected(simple("SU", 1201))
    assert (len(entries), counted.holds) == (601, 1)
    assert list(maximal_steps(simple("SU", 1201))) == _first_kinds(SimpleType("SU", 1201))
    assert counted.holds == 1
    _step_sequence.cache_clear()
    maximal_connected.cache_clear()


def test_threads_reading_lazily_and_in_bulk_see_one_list():
    # half the threads iterate one fresh step sequence lazily, half take its
    # bulk read; with more threads than cores and a short switch interval,
    # every thread ends with the same list, in generation order
    s = SimpleType("SU", 720)
    expected = _first_kinds(s)
    sequence = _StepSequence(s)
    start = threading.Barrier(8)
    results = [None] * 8

    def read(i):
        start.wait(timeout=60)
        results[i] = list(sequence) if i % 2 else list(sequence.generated())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
    assert sequence.rest is None and sequence.steps == expected


def _clear_table_steps():
    chains._LONGEST_STEPS.clear()
    chains._SHORTEST_STEPS.clear()


_LONG_CHAINS = ("SU(2000)", "Sp(2000)", "SO(2000)", "SU(300) x SU(301)", "E8 x SO(500)",
                "SU(3)^2000", "SU(2)^3000 x T^5")


def test_long_chains_generate_steps_linearly(monkeypatch):
    generated = []
    candidates = subgroups._candidates

    def counted(s):
        for step in candidates(s):
            generated.append(step)
            yield step

    monkeypatch.setattr(subgroups, "_candidates", counted)
    _step_sequence.cache_clear()
    _clear_table_steps()
    before = maximal_connected.cache_info().currsize
    nodes = 0
    for spec in _LONG_CHAINS:
        chain = max_chain(parse_group(spec))
        assert verify_chain(chain).overall == "valid", spec
        assert maximal_connected.cache_info().currsize == before, spec
        nodes += len(chain.nodes)
    # a step sequence generates up to the step a chain takes, never a table
    assert len(generated) <= nodes, (len(generated), nodes)
    _step_sequence.cache_clear()
    _clear_table_steps()


def _chain_steps(groups):
    for g in groups:
        for chain in (max_chain(g), min_chain(g)):
            if chain is not None:
                yield from zip(chain.nodes, chain.nodes[1:], chain.steps)


def test_recorded_kinds_are_the_table_kinds():
    groups = list(iter_groups(30)) + [GroupType(0, ((s, 1),)) for s in iter_simple_types(max_degree=60)]
    for parent, child, kind in _chain_steps(groups):
        table = {e.subgroup: e.kind for e in maximal_connected(parent)[0]}
        assert kind == table[child] == _first_raw_kind(parent, child), (parent, child)
    # tables at every node of the long chains are the quadratic work that
    # witness chains no longer do (over a minute), so their steps are checked
    # against the first raw candidate reaching the child: the table's rule
    for parent, child, kind in _chain_steps(parse_group(s) for s in _LONG_CHAINS):
        assert kind == _first_raw_kind(parent, child), (parent, child)


def test_step_readers_build_no_product_table():
    maximal_connected.cache_clear()
    assert verify_chain(max_chain(parse_group("SU(60) x Sp(40) x T^2"))).overall == "valid"
    oracle_depth(parse_group("SO(8) x SU(6) x T"))
    assert maximal_connected.cache_info().currsize == 0
    # the torus drop comes first, before any factor's table is built
    before = _step_sequence.cache_info().currsize
    g = parse_group("SU(3000) x T")
    assert next(maximal_steps(g)) == (parse_group("SU(3000)"), EmbeddingKind.torus_drop())
    assert _step_sequence.cache_info().currsize == before


@pytest.mark.parametrize("parent,child,verdict", [
    ("F4", "SO(9)", YES),
    ("SU(2)", "1", NO),
    ("E8", "E7 x SU(2)", YES),
    ("SU(3)", "T", NO),
    ("SO(9)", "SO(8)", YES),
    ("SO(9)", "G2", UNKNOWN),   # absent, and SO(9) is not certified complete
    ("E6", "F4", YES),
    ("SU(4) x T", "SU(3) x T", NO),   # two steps down, via SU(3) x T^2
    ("SO(9) x T", "SO(8)", UNKNOWN),  # two steps down, via SO(9)
])
def test_is_maximal_step(parent, child, verdict):
    assert is_maximal_step(parse_group(parent), parse_group(child)) == verdict


_SCAN = [simple("SU", n) for n in range(2, 13)] + [
    simple("Sp", n) for n in range(4, 13, 2)] + [
    simple("SO", n) for n in range(7, 13)] + [
    simple(f) for f in ("G2", "F4", "E6", "E7", "E8")] + [
    parse_group("SU(2)^3 x T"), parse_group("SO(8) x Sp(4) x T^2")]


def _scan_verdict(parent, child):
    """The verdict of a membership scan over every step of ``parent``: the
    reference for ``is_maximal_step``, which reads one factor's steps."""
    if parent.is_trivial:
        return NO
    if any(step == child for step, _ in maximal_steps(parent)):
        return YES
    return NO if is_curated(parent) else UNKNOWN


def test_step_check_matches_the_membership_scan():
    verdicts = Counter()
    for parent in _SCAN + list(iter_groups(14)):
        steps = [step for step, _ in maximal_steps(parent)]
        # the steps, then two steps down, then a step with one more torus rank
        children = list(steps)
        for step in steps:
            if not step.is_trivial:
                children += [sub for sub, _ in maximal_steps(step)]
            children.append(step.with_torus(1))
        for child in children:
            verdict = is_maximal_step(parent, child)
            assert verdict == _scan_verdict(parent, child), (parent, child)
            verdicts[verdict] += 1
    assert verdicts == {YES: 475, NO: 597, UNKNOWN: 775}


def test_chains_and_step_checks_search_no_steps(monkeypatch):
    def refuse(g):
        raise AssertionError(f"searched the steps of {g}")

    monkeypatch.setattr(chains, "maximal_steps", refuse, raising=False)
    monkeypatch.setattr(subgroups, "maximal_steps", refuse)
    # the chains then read the step sequences of their types afresh
    _step_sequence.cache_clear()
    _clear_table_steps()
    for spec in ("SU(300) x Sp(40)^2 x T^3", "E8^3 x SO(20)"):
        g = parse_group(spec)
        chain = max_chain(g)
        assert len(chain) == length(g), spec
        assert verify_chain(chain).overall == "valid", spec
    for spec in ("SO(20)^3 x T^2", "E8^3"):
        chain = min_chain(parse_group(spec))
        assert chain is not None and verify_chain(chain).ok, spec

    # the step check reads the one factor that lost a copy, and only as
    # far as the step: the first of SU(3000), nothing of SU(2999)
    generated = []
    candidates = subgroups._candidates

    def counted(s):
        for step in candidates(s):
            generated.append(s)
            yield step

    monkeypatch.setattr(subgroups, "_candidates", counted)
    _step_sequence.cache_clear()
    parent = parse_group("SU(3000) x SU(2999)")
    assert is_maximal_step(parent, parse_group("SU(2999)^2 x T")) == YES
    assert generated.count(SimpleType("SU", 3000)) <= 2
    assert SimpleType("SU", 2999) not in generated
    _step_sequence.cache_clear()
    _clear_table_steps()


def test_entries_decrease_dim_and_rank():
    for g in _SCAN:
        entries, _ = maximal_connected(g)
        for e in entries:
            assert e.subgroup.dim < g.dim, (g, e.subgroup)
            assert e.subgroup.rank <= g.rank, (g, e.subgroup)


def test_entries_deduplicated():
    for g in _SCAN:
        entries, _ = maximal_connected(g)
        subs = [e.subgroup for e in entries]
        assert len(subs) == len(set(subs))


@pytest.mark.parametrize("family,degree,expected", [
    ("SU", 2, 4), ("SU", 3, 6), ("SU", 4, 10), ("SU", 5, 10), ("SU", 6, 15),
    ("Sp", 4, 10), ("Sp", 6, 14), ("Sp", 8, 27),
    ("SO", 7, 8), ("SO", 8, 28), ("SO", 9, 16), ("SO", 14, 64), ("SO", 15, 105),
    ("G2", 0, 7), ("F4", 0, 26), ("E6", 0, 27), ("E7", 0, 56), ("E8", 0, 248),
])
def test_min_irrep_dim(family, degree, expected):
    assert min_irrep_dim(SimpleType(family, degree)) == expected


def test_min_irrep_growth_inequality():
    # the minimal faithful representation jump increases classical lengths
    for h in iter_simple_types(max_degree=30):
        if not h.is_classical:
            continue
        n_min = min_irrep_dim(h)
        for fam in ("SU", "Sp", "SO"):
            if fam == "Sp" and (n_min % 2 or n_min < 4):
                continue
            if fam == "SO" and n_min < 7:
                continue
            assert f_classical(fam, n_min) > f_classical(h.family, h.degree), (h, fam)


def test_exceptional_cutoffs():
    expected = {"G2": 7, "F4": 31, "E6": 32, "E7": 69, "E8": 309}
    for family, m_expected in expected.items():
        s = SimpleType(family)
        n_min = min_irrep_dim(s)
        candidates = [f_classical("SU", n_min)]
        if n_min >= 4 and n_min % 2 == 0:
            candidates.append(f_classical("Sp", n_min))
        if n_min >= 7:
            candidates.append(f_classical("SO", n_min))
        assert min(candidates) == m_expected
        assert length_simple(s) < m_expected


def test_is_curated():
    assert is_curated(parse_group("SO(8) x G2 x T^5"))
    assert not is_curated(parse_group("SO(9)"))
    assert is_curated(torus(3))


def test_query_json_schema():
    payload = query_json(parse_group("Sp(4)"))
    assert payload["parent"] == "Sp(4)"
    assert payload["complete"] is True
    assert {e["subgroup"] for e in payload["entries"]} == {"SU(2)^2", "SU(2) x T", "SU(2)"}
    for e in payload["entries"]:
        assert set(e) == {"subgroup", "kind", "params"}


# sha256 of json.dumps(query_json(g)), one line each, over iter_groups(24)
# and then every simple type of degree <= 60: the entries and their order
MAXIMALS_DIGEST = "dae7c4ace96f74a6a6fe91f1168b114189d202a9825c45288da41c238c772bcc"


def test_maximals_output_matches_pinned_digest():
    groups = list(iter_groups(24)) + [simple(s.family, s.degree)
                                      for s in iter_simple_types(max_degree=60)]
    text = "\n".join(json.dumps(query_json(g)) for g in groups)
    assert len(groups) == 468
    assert hashlib.sha256(text.encode()).hexdigest() == MAXIMALS_DIGEST


def test_curated_set_is_downward_closed():
    seen = set()
    frontier = [GroupType(0, ((s, 1),)) for s in CURATED_SIMPLE]
    while frontier:
        g = frontier.pop()
        if g in seen or g.is_trivial:
            continue
        seen.add(g)
        entries, flag = maximal_connected(g)
        assert flag.complete, g
        for e in entries:
            for s, _ in e.subgroup.counts:
                assert s in CURATED_SIMPLE, (g, e.subgroup)
            if e.subgroup.semisimple_part not in seen:
                frontier.append(e.subgroup.semisimple_part)


def test_trivial_parent_is_never_maximal():
    assert is_maximal_step(parse_group("1"), parse_group("1")) == NO
