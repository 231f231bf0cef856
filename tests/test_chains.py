import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from liechain import chains
from liechain.chains import Chain, max_chain, min_chain, parse_chain_text, verify_chain
from liechain.errors import MalformedTypeError
from liechain.formulas import (
    depth,
    length,
    length_simple,
    max_step_simple,
    min_step_simple,
)
from liechain.groups import (
    GroupType,
    SimpleType,
    iter_groups,
    iter_simple_types,
    parse_group,
    simple,
)
from liechain.subgroups import (
    TORUS_DROP,
    EmbeddingKind,
    maximal_connected,
    maximal_steps,
    simple_step_kind,
)
from test_subgroups import _LONG_CHAINS, _clear_table_steps


def _specs(chain):
    return [str(node) for node in chain.nodes]


def test_max_chain_su3_matches_quoted_descent():
    assert _specs(max_chain(parse_group("SU(3)"))) == [
        "SU(3)", "SU(2) x T", "SU(2)", "T", "1"]


def test_max_chain_f4_length_11_through_so9():
    chain = max_chain(parse_group("F4"))
    assert len(chain) == 11
    assert str(chain.nodes[1]) == "SO(9)"
    assert verify_chain(chain).overall == "valid"


def test_max_chain_sp4():
    chain = max_chain(parse_group("Sp(4)"))
    assert len(chain) == 5
    assert str(chain.nodes[1]) == "SU(2)^2"


def test_max_chain_torus_all_drops():
    chain = max_chain(parse_group("T^4"))
    assert len(chain) == 4
    assert all(step.kind == "torus-drop" for step in chain.steps)


def test_max_chain_exceptional_lengths():
    for spec, expected in [("G2", 5), ("F4", 11), ("E6", 13), ("E7", 17), ("E8", 20)]:
        chain = max_chain(parse_group(spec))
        assert len(chain) == expected
        assert verify_chain(chain).overall == "valid"


def test_chains_strictly_decrease():
    for spec in ["E7", "SO(14)", "SU(9) x Sp(4) x T^2"]:
        chain = max_chain(parse_group(spec))
        pairs = list(zip(chain.nodes, chain.nodes[1:]))
        assert all((p.dim, p.rank) > (c.dim, c.rank) for p, c in pairs)


def test_min_chain_examples():
    assert _specs(min_chain(parse_group("SO(7)"))) == ["SO(7)", "G2", "SU(2)", "T", "1"]
    assert _specs(min_chain(parse_group("E6"))) == ["E6", "F4", "SU(2)", "T", "1"]
    chain = min_chain(parse_group("SU(2)^3"))
    assert _specs(chain) == ["SU(2)^3", "SU(2)^2", "SU(2)", "T", "1"]
    assert _specs(min_chain(parse_group("SU(7)"))) == [
        "SU(7)", "SO(7)", "G2", "SU(2)", "T", "1"]
    assert _specs(min_chain(parse_group("SO(8)"))) == [
        "SO(8)", "SU(3)", "SU(2)", "T", "1"]


def test_min_chain_realizes_depth_for_all_simple_types():
    specs = ["SU(2)", "SU(3)", "SU(7)", "Sp(4)", "Sp(6)", "SO(7)", "SO(8)",
             "SO(9)", "E6", "G2", "F4", "E7", "E8", "SU(11)", "Sp(12)",
             "SO(13)", "SO(14)"]
    for spec in specs:
        g = parse_group(spec)
        chain = min_chain(g)
        assert chain is not None
        assert len(chain) == depth(g).exact_value, spec
        assert verify_chain(chain).overall == "valid", spec


def test_min_chain_homogeneous_with_torus():
    g = parse_group("Sp(4)^2 x T^3")
    chain = min_chain(g)
    assert len(chain) == depth(g).exact_value == 3 + 3 + 1
    assert verify_chain(chain).overall == "valid"


def test_min_chain_curated_mixed_product():
    g = parse_group("SU(4) x Sp(4)")
    chain = min_chain(g)
    assert len(chain) == 5
    assert verify_chain(chain).overall == "valid"


def test_min_chain_unavailable_outside_curated():
    assert min_chain(parse_group("SU(7) x SU(2)")) is None


# sha256 of the JSON of max_chain and min_chain (None when unavailable), one
# line each, over iter_groups(30) and then every simple type of degree <= 60
CHAINS_DIGEST = "6bf78b7218585e8d40449eca46142785fc603640ba4fc3a740e774c1894bf4fc"


def test_chain_output_matches_pinned_digest():
    groups = list(iter_groups(30))
    groups += [GroupType(0, ((s, 1),)) for s in iter_simple_types(max_degree=60)]
    digest = hashlib.sha256()
    for g in groups:
        shortest = min_chain(g)
        shortest_json = shortest.to_json() if shortest is not None else None
        digest.update((json.dumps(max_chain(g).to_json()) + "\n").encode())
        digest.update((json.dumps(shortest_json) + "\n").encode())
    assert len(groups) == 867
    assert digest.hexdigest() == CHAINS_DIGEST


# the per-node reference: each node reads its first factor's table step and
# that step's kind afresh, and builds its child by replace_one


def _reference_factor_step(g, table):
    s = g.counts[0][0]
    step = table(s)
    kind = simple_step_kind(s, step)
    assert kind is not None, (s, step)
    if g.is_simple:
        return step, kind
    return g.replace_one(s, step), EmbeddingKind.factor(0, kind)


def _reference_max_pick(g):
    if g.torus_rank > 0:
        return g.with_torus(-1), TORUS_DROP
    return _reference_factor_step(g, max_step_simple)


def _reference_min_pick(g):
    if not g.counts:
        return g.with_torus(-1), TORUS_DROP
    s, k = g.counts[0]
    if k > 1:
        return g.drop_one(s), EmbeddingKind.diagonal(s)
    return _reference_factor_step(g, min_step_simple)


def _reference_chain(g, pick):
    nodes, steps = [g], []
    while not g.is_trivial:
        g, kind = pick(g)
        nodes.append(g)
        steps.append(kind)
    return tuple(nodes), tuple(steps)


def _reference_min_chain(g):
    # a mixed product descends by the oracle's entries, which the reference shares
    if not depth(g, refine=True).is_exact:
        return None
    return _reference_chain(g, _reference_min_pick if len(g.counts) <= 1 else chains._curated_pick)


def _random_products(count, seed=0):
    types = list(iter_simple_types(max_degree=60))
    rng = random.Random(seed)
    for _ in range(count):
        factors = rng.sample(types, rng.randint(1, 3))
        yield GroupType(rng.randint(0, 3), tuple((s, rng.randint(1, 3)) for s in factors))


def test_chains_match_the_per_node_reference():
    groups = list(iter_groups(30))
    groups += [GroupType(z, ((s, k),)) for s in iter_simple_types(max_degree=60)
               for k in (1, 2, 3) for z in (0, 1, 2)]
    groups += [parse_group(spec) for spec in _LONG_CHAINS]
    groups += list(_random_products(150))
    for g in groups:
        chain = max_chain(g)
        assert (chain.nodes, chain.steps) == _reference_chain(g, _reference_max_pick), g
        shortest = min_chain(g)
        got = None if shortest is None else (shortest.nodes, shortest.steps)
        assert got == _reference_min_chain(g), g


def test_each_simple_type_reads_its_table_step_once(monkeypatch):
    read = []

    def counted(s, step):
        read.append(s)
        return simple_step_kind(s, step)

    monkeypatch.setattr(chains, "simple_step_kind", counted)
    _clear_table_steps()
    chain = max_chain(parse_group("Sp(22)^2 x Sp(38)^2 x T x Sp(24)^3"))
    stepped = {parent.counts[0][0] for parent, kind in zip(chain.nodes, chain.steps)
               if kind != TORUS_DROP}
    assert len(chain) == 282
    assert sorted(map(str, read)) == sorted(map(str, stepped))
    _clear_table_steps()


def test_simple_steps_are_database_entries():
    # iter_simple_types passes the five exceptional types at any degree bound
    for s in iter_simple_types(max_degree=60):
        entries, _ = maximal_connected(GroupType(0, ((s, 1),)))
        children = {e.subgroup for e in entries}
        assert max_step_simple(s) in children, s
        assert min_step_simple(s) in children, s
        assert length(max_step_simple(s)) == length_simple(s) - 1, s


def test_verify_rejects_non_maximal_step():
    report = verify_chain([parse_group("SU(3)"), parse_group("T"), parse_group("1")])
    assert report.overall == "invalid"
    assert report.failed_step == 0


def test_verify_quoted_chain():
    nodes = [parse_group(s) for s in ["G2", "SU(3)", "SU(2)", "T", "1"]]
    assert verify_chain(nodes).overall == "valid"


def test_verify_unknown_steps_flagged():
    # G2 sits below SO(7) inside SO(9), so it is absent from the SO(9) list;
    # since SO(9) is not certified complete the verdict is unknown, not no
    nodes = [parse_group(s) for s in ["SO(9)", "G2", "SU(2)", "T", "1"]]
    report = verify_chain(nodes)
    assert report.overall == "valid-modulo-unknown"
    assert report.unknown_steps == (0,)


def test_verify_malformed_chains():
    assert verify_chain([parse_group("SU(2)")]).overall == "invalid"
    report = verify_chain([parse_group("SU(2)"), parse_group("SU(2) x T"), parse_group("1")])
    assert report.overall == "invalid" and "descending" in report.reason


def test_chain_constructor_validates():
    with pytest.raises(MalformedTypeError):
        Chain((parse_group("SU(2)"),), ())
    with pytest.raises(MalformedTypeError):
        Chain((parse_group("SU(2)"), parse_group("1")), ())


def test_chain_json_round_trip():
    chain = max_chain(parse_group("Sp(4) x T"))
    payload = chain.to_json()
    assert payload["length"] == len(chain)
    assert payload["nodes"][0] == "Sp(4) x T" and payload["nodes"][-1] == "1"
    assert [parse_group(s) for s in payload["nodes"]] == list(chain.nodes)


def test_parse_chain_text():
    text = "SO(7)\n\nG2\nSU(2)\nT\n1\n"
    nodes = parse_chain_text(text)
    assert nodes == list(min_chain(parse_group("SO(7)")).nodes)


_POOL = [SimpleType("SU", n) for n in (2, 3, 4, 5, 7, 9)] + [
    SimpleType("Sp", 4), SimpleType("Sp", 8), SimpleType("SO", 7),
    SimpleType("SO", 8), SimpleType("SO", 11), SimpleType("G2"),
    SimpleType("F4"), SimpleType("E6")]


@st.composite
def bounded_groups(draw):
    factors = draw(st.lists(st.sampled_from(_POOL), max_size=3))
    while sum(s.degree for s in factors) > 40:
        factors.pop()
    z = draw(st.integers(min_value=0, max_value=3))
    g = GroupType(z, tuple((s, 1) for s in factors))
    return g if not g.is_trivial else simple("SU", 2)


@settings(max_examples=60, deadline=None)
@given(bounded_groups())
def test_max_chain_property(g):
    chain = max_chain(g)
    assert len(chain) == length(g)
    assert verify_chain(chain).overall in ("valid", "valid-modulo-unknown")
    assert all(p.dim > c.dim for p, c in zip(chain.nodes, chain.nodes[1:]))
    # each recorded kind is the one a scan of the parent's steps finds
    for parent, child, kind in zip(chain.nodes, chain.nodes[1:], chain.steps):
        assert kind == next(k for step, k in maximal_steps(parent) if step == child)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_POOL), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2))
def test_min_chain_property_homogeneous(s, k, z):
    g = GroupType(z, ((s, k),))
    chain = min_chain(g)
    assert chain is not None
    assert len(chain) == depth(g).exact_value
    assert verify_chain(chain).overall in ("valid", "valid-modulo-unknown")
