import pytest

from liechain.chains import max_chain, verify_chain
from liechain.errors import TrivialGroupError
from liechain.formulas import f_classical, length_simple
from liechain.groups import (
    TRIVIAL,
    GroupType,
    SimpleType,
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
    EmbeddingKind,
    _finish,
    is_curated,
    is_maximal_step,
    maximal_connected,
    maximal_connected_simple,
    maximal_steps,
    min_irrep_dim,
    query_json,
)


def _types(entries):
    return {str(e.subgroup) for e in entries}


def test_g2_row():
    entries, flag = maximal_connected_simple(SimpleType("G2"))
    assert _types(entries) == {"SU(3)", "SU(2)^2", "SU(2)"}
    assert flag.complete


def test_su2():
    entries, flag = maximal_connected_simple(SimpleType("SU", 2))
    assert _types(entries) == {"T"}
    assert flag.complete


def test_su4_with_coincidence_dedup():
    entries, flag = maximal_connected_simple(SimpleType("SU", 4))
    assert _types(entries) == {"SU(3) x T", "SU(2)^2 x T", "Sp(4)", "SU(2)^2"}
    assert flag.complete
    # the 2x2 tensor square collapses onto the orthogonal subgroup: one entry
    assert len(entries) == len({e.subgroup for e in entries})


def test_so7():
    entries, flag = maximal_connected_simple(SimpleType("SO", 7))
    assert _types(entries) == {"SU(4)", "Sp(4) x T", "SU(2)^3", "G2"}
    assert flag.complete


def test_so8_has_adjoint_su3():
    entries, flag = maximal_connected_simple(SimpleType("SO", 8))
    assert _types(entries) == {"SO(7)", "SU(4) x T", "SU(2) x Sp(4)", "SU(2)^4", "SU(3)"}
    assert flag.complete


def test_sp6():
    entries, _ = maximal_connected_simple(SimpleType("Sp", 6))
    assert _types(entries) == {"SU(2) x Sp(4)", "SU(3) x T", "SU(2)^2", "SU(2)"}


def test_non_curated_flag():
    _, flag = maximal_connected_simple(SimpleType("SO", 9))
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


def test_table_is_the_finished_step_rule():
    groups = [g for g in iter_groups(30) if is_curated(g)]
    groups += [parse_group(spec) for spec in ("SU(7) x SU(2)^2 x T", "E8 x SO(9)", "Sp(8)^2")]
    groups += [GroupType(0, (s,)) for s in iter_simple_types(max_degree=20)]
    for g in groups:
        assert _finish(g.dim, maximal_steps(g)) == maximal_connected(g)[0], g


def test_step_readers_build_no_product_table():
    maximal_connected.cache_clear()
    assert verify_chain(max_chain(parse_group("SU(60) x Sp(40) x T^2"))).overall == "valid"
    oracle_depth(parse_group("SO(8) x SU(6) x T"))
    assert maximal_connected.cache_info().currsize == 0
    # the torus drop comes first, before any factor's table is built
    before = maximal_connected_simple.cache_info().currsize
    g = parse_group("SU(3000) x T")
    assert next(maximal_steps(g)) == (parse_group("SU(3000)"), EmbeddingKind.torus_drop())
    assert maximal_connected_simple.cache_info().currsize == before


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


def test_curated_set_is_downward_closed():
    seen = set()
    frontier = [GroupType(0, (s,)) for s in CURATED_SIMPLE]
    while frontier:
        g = frontier.pop()
        if g in seen or g.is_trivial:
            continue
        seen.add(g)
        entries, flag = maximal_connected(g)
        assert flag.complete, g
        for e in entries:
            for s in e.subgroup.factors:
                assert s in CURATED_SIMPLE, (g, e.subgroup)
            if e.subgroup.semisimple_part not in seen:
                frontier.append(e.subgroup.semisimple_part)


def test_trivial_parent_is_never_maximal():
    assert is_maximal_step(parse_group("1"), parse_group("1")) == NO
