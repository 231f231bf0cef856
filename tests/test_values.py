"""The contract of the value classes: equality and hashing by fields (for
the interned simple types, by identity), immutability, the messages of
refused input, and the reprs and defaults callers read."""

import copy
import itertools
import pickle
import threading
from fractions import Fraction

import pytest

from liechain.chains import Chain, VerifyReport
from liechain.errors import MalformedTypeError
from liechain.formulas import BoundsOrExact
from liechain import groups
from liechain.groups import GroupType, SimpleType, canonicalize, iter_simple_types, parse_group
from liechain.oracle import Oracle
from liechain.radicals import QuadExpr
from liechain.subgroups import TORUS_DROP, CompletenessFlag, EmbeddingKind, MaximalEntry
from liechain.suites import Check

SU3 = SimpleType("SU", 3)
T2, T, ONE = parse_group("T^2"), parse_group("T"), parse_group("1")
LEVI = EmbeddingKind.levi()

# class, the fields of one value, and for each field another valid value
CASES = [
    (SimpleType, ("Sp", 4), ("SU", 6)),
    (GroupType, (1, ((SU3, 1),)), (2, ((SU3, 2),))),
    (BoundsOrExact, (1, 3), (2, 4)),
    (QuadExpr, (((2, Fraction(1)),),), (((3, Fraction(1)),),)),
    (EmbeddingKind, ("reducible", (("k", 1),)), ("tensor", (("k", 2),))),
    (Chain, ((parse_group("SU(2)"), T, ONE), (LEVI, TORUS_DROP)),
     ((T2, T, ONE), (TORUS_DROP, LEVI))),
    (Oracle, (True, {}), (False, {T: (1, 1)})),
    (Check, ("claim", {"n": 1}, "1", "2", True), ("other", {"n": 2}, "3", "4", False)),
    (MaximalEntry, (T, LEVI), (ONE, TORUS_DROP)),
    (CompletenessFlag, (True, "curated"), (False, "outside")),
    (VerifyReport, (("yes",), "valid", None, (), None),
     (("no",), "invalid", 0, (1,), "bad")),
]
UNHASHABLE = {Oracle, Check}  # a mutable memo; a dict of inputs
MUTABLE = {Oracle}
IDS = [cls.__name__ for cls, _, _ in CASES]


def _oracle(cached, table):
    # an Oracle takes its memo empty, and fills it as it computes
    oracle = Oracle(cached)
    oracle.table.update(table)
    return oracle


BUILD = {Oracle: _oracle}


def _field_names(value):
    return getattr(value, "_fields", None) or value.__slots__


@pytest.mark.parametrize("cls, fields, others", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, others):
    build = BUILD.get(cls, cls)
    a, b = build(*fields), build(*copy.deepcopy(fields))
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for i, other in enumerate(others):
        changed = build(*fields[:i], other, *fields[i + 1:])
        assert changed != a and not changed == a, i


@pytest.mark.parametrize("cls, fields, others", [c for c in CASES if c[0] not in MUTABLE],
                         ids=[i for i, c in zip(IDS, CASES) if c[0] not in MUTABLE])
def test_frozen_fields_refuse_assignment_and_deletion(cls, fields, others):
    value = cls(*fields)
    for name, other in zip(_field_names(value), others):
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert cls(*fields) == value
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("build, error, message", [
    (lambda: SimpleType("XY", 3), MalformedTypeError, "unknown family 'XY'"),
    (lambda: SimpleType(["SU"], 3), MalformedTypeError, "unknown family ['SU']"),
    (lambda: SimpleType("SU", 1e9), MalformedTypeError,
     "SU degree must be an integer, got 1000000000.0"),
    (lambda: SimpleType("G2", 3), MalformedTypeError, "G2 takes no degree"),
    (lambda: SimpleType("SU", 0), MalformedTypeError, "SU degree must be positive, got 0"),
    (lambda: SimpleType("SU", 1), MalformedTypeError, "SU(1) is not canonical (need n >= 2)"),
    (lambda: SimpleType("Sp", 5), MalformedTypeError,
     "Sp(5) is malformed (degree must be even)"),
    (lambda: SimpleType("Sp", 2), MalformedTypeError, "Sp(2) is not canonical (need n >= 4)"),
    (lambda: SimpleType("SO", 6), MalformedTypeError, "SO(6) is not canonical (need n >= 7)"),
    (lambda: GroupType(-1), MalformedTypeError, "torus rank must be nonnegative"),
    (lambda: GroupType(0, ((SU3, 0),)), MalformedTypeError,
     "multiplicity of SU(3) must be positive, got 0"),
    (lambda: BoundsOrExact(2, 1), ValueError, "bad bounds [2, 1]"),
    (lambda: BoundsOrExact(-1, 0), ValueError, "bad bounds [-1, 0]"),
    (lambda: EmbeddingKind("bogus"), ValueError, "unknown embedding kind 'bogus'"),
    (lambda: Chain((T,), ()), MalformedTypeError, "chain must end at the trivial group"),
    (lambda: Chain((T, ONE), ()), MalformedTypeError, "need exactly one step per adjacent pair"),
    (lambda: Chain((T, T, ONE), (TORUS_DROP, TORUS_DROP)), MalformedTypeError,
     "chain not strictly descending at T > T"),
])
def test_invalid_input_is_refused_with_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_reprs():
    assert repr(SU3) == "SimpleType('SU(3)')"
    assert repr(SimpleType("G2")) == "SimpleType('G2')"
    assert repr(parse_group("SU(3)^2 x T")) == "GroupType('SU(3)^2 x T')"
    assert repr(BoundsOrExact(1, 2)) == "BoundsOrExact(lower=1, upper=2)"
    assert repr(LEVI) == "EmbeddingKind(kind='levi', params=())"


def test_oracle_defaults():
    fresh, bare = Oracle(), Oracle(cached=False)
    assert (fresh.cached, fresh.table, bare.cached, bare.table) == (True, {}, False, {})
    assert fresh.table is not Oracle().table
    assert repr(fresh) == "Oracle(cached=True, table={})"


def test_equal_simple_types_are_one_object():
    so9 = SimpleType("SO", 9)
    same = [SimpleType("SO", 9), canonicalize("SO", 9).simple_factor,
            parse_group("so(9) x T").counts[0][0],
            next(s for s in iter_simple_types(max_degree=9) if s.family == "SO" and s.degree == 9),
            copy.copy(so9), copy.deepcopy(so9), copy.deepcopy([so9])[0]]
    same += [pickle.loads(pickle.dumps(so9, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(s is so9 for s in same)
    assert canonicalize("SO", 6).simple_factor is SimpleType("SU", 4)
    assert (so9.dim, so9.rank, so9.sort_key, so9.is_classical) == (36, 4, (2, 9), True)


def test_simple_types_compare_and_hash_by_identity():
    # a Python-level __eq__ or __hash__ would run a frame on every dict, set
    # and cache probe by type
    assert SimpleType.__eq__ is object.__eq__
    assert SimpleType.__hash__ is object.__hash__


def test_threads_building_one_new_type_get_one_object(monkeypatch):
    # all eight threads miss the table and build their own candidate before
    # any stores one; the one stored first is the one each must get
    degree = next(n for n in itertools.count(10**6) if n not in groups._INTERNED["SU"])
    barrier, results = threading.Barrier(8), []
    check = groups._check_classical_degree

    def check_together(family, n):
        check(family, n)
        barrier.wait(timeout=60)

    monkeypatch.setattr(groups, "_check_classical_degree", check_together)
    threads = [threading.Thread(target=lambda: results.append(SimpleType("SU", degree)))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(s is results[0] for s in results)
    assert SimpleType("SU", degree) is results[0]
