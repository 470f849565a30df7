"""Finite structures, the level chain, deltas, and serialization."""

import itertools
import random

import pytest

from levelsat.formula import Signature, fin, omega_plus
from levelsat.structures import (
    ExtensionDelta,
    FinStructure,
    StructureError,
    apply_delta,
    canonical_json,
)

SIG = Signature((("E", 2),))


def _pair() -> FinStructure:
    return FinStructure(SIG, ((0, fin(0)), (1, fin(2))), (("E", (0, 1)),))


# -- construction and V sets ------------------------------------------------------


def test_singleton_v_set():
    M = FinStructure(SIG, ((0, fin(0)),), ())
    assert M.v_ids(fin(0)) == (0,)


def test_v_set_level_comparison():
    M = _pair()
    assert M.v_ids(fin(1)) == (0,)
    assert M.v_ids(fin(2)) == (0, 1)


def test_v_omega_contains_every_fin_level():
    M = _pair()
    for n in range(5):
        assert set(M.v_ids(fin(n))) <= set(M.v_ids(omega_plus(0)))


def test_v_set_monotone():
    M = FinStructure(
        SIG,
        ((0, fin(0)), (1, fin(1)), (2, omega_plus(0)), (3, omega_plus(2))),
        (),
    )
    levels = [fin(0), fin(1), fin(3), omega_plus(0), omega_plus(1), omega_plus(2)]
    for a in levels:
        for b in levels:
            if a <= b:
                assert set(M.v_ids(a)) <= set(M.v_ids(b))


def test_rejects_bad_universes():
    with pytest.raises(StructureError):
        FinStructure(SIG, ((0, fin(0)), (0, fin(1))), ())
    with pytest.raises(StructureError):
        FinStructure(SIG, ((-3, fin(0)),), ())
    with pytest.raises(StructureError):
        FinStructure(SIG, ((0, fin(0)),), (("E", (0, 7)),))
    with pytest.raises(StructureError):
        FinStructure(SIG, ((0, fin(0)),), (("E", (0,)),))
    with pytest.raises(StructureError):
        FinStructure(SIG, ((0, fin(0)),), (("R", (0, 0)),))


# -- deltas ---------------------------------------------------------------------------


def test_apply_empty_delta_is_identity():
    M = _pair()
    assert apply_delta(M, ExtensionDelta.empty()) == M


def test_apply_delta_extends():
    M = FinStructure(SIG, ((0, fin(0)),), ())
    M2 = apply_delta(M, ExtensionDelta(((1, fin(1)),), (("E", (0, 1)),)))
    assert M2.universe == (0, 1)
    assert M2.level_of(1) == fin(1)
    assert M2.has_fact("E", (0, 1))
    # the input is untouched
    assert M.universe == (0,)
    assert not M.facts("E")


def test_apply_delta_rejects_old_only_fact():
    M = _pair()
    with pytest.raises(StructureError):
        apply_delta(M, ExtensionDelta(((2, fin(1)),), (("E", (0, 0)),)))


def test_apply_delta_rejects_id_collision():
    M = _pair()
    with pytest.raises(StructureError):
        apply_delta(M, ExtensionDelta(((1, fin(3)),), ()))
    with pytest.raises(StructureError):
        apply_delta(M, ExtensionDelta(((2, fin(1)), (2, fin(1))), ()))


def test_apply_delta_rejects_dangling_and_unknown():
    M = _pair()
    with pytest.raises(StructureError):
        apply_delta(M, ExtensionDelta(((2, fin(1)),), (("E", (2, 9)),)))
    with pytest.raises(StructureError):
        apply_delta(M, ExtensionDelta(((2, fin(1)),), (("R", (2, 0)),)))


def test_extension_restricts_to_old_structure():
    M = _pair()
    M2 = apply_delta(
        M, ExtensionDelta(((2, omega_plus(1)),), (("E", (1, 2)), ("E", (2, 2))))
    )
    old = set(M.universe)
    for name in ("E",):
        inside_old = {t for t in M2.facts(name) if set(t) <= old}
        assert inside_old == set(M.facts(name))
    for e in M.universe:
        assert M2.level_of(e) == M.level_of(e)


# -- the incremental apply_delta against a fresh build ----------------------------------

MSIG = Signature((("E", 2), ("P", 1), ("T", 3)))
MLEVELS = (fin(0), fin(1), fin(2), omega_plus(0), omega_plus(1))


def _random_delta(rng, M, max_new=3):
    """New ids past the universe (or, now and then, into a gap below it)
    and random facts, each touching a new element."""
    gaps = [e for e in range(M.max_id) if e not in M]
    new = rng.sample(gaps, 1) if gaps and rng.random() < 0.3 else []
    new += rng.sample(range(M.max_id + 1, M.max_id + 2 * max_new), rng.randint(1, max_new))
    pool = list(M.universe) + new
    facts = []
    for _ in range(rng.randint(0, 6)):
        rel, arity = rng.choice(MSIG.relations)
        tup = [rng.choice(pool) for _ in range(arity)]
        tup[rng.randrange(arity)] = rng.choice(new)
        facts.append((rel, tuple(tup)))
    return ExtensionDelta(tuple((e, rng.choice(MLEVELS)) for e in new), tuple(facts))


def _snapshot(M):
    """Everything a query can read from M, index included."""
    ids = M.universe + (M.max_id + 1,)
    return (
        M.to_json(),
        [M.v_ids(a) for a in MLEVELS],
        {t: M.has_fact("E", t) for t in itertools.product(ids, repeat=2)},
        {
            (rel, pos, e): set(M.neighbours(rel, pos, e))
            for rel in M.signature.names() for pos in (0, 1) for e in ids
        },
    )


def _assert_same(M, fresh):
    assert M == fresh and hash(M) == hash(fresh)
    assert M.to_json() == fresh.to_json()
    for alpha in MLEVELS + (None,):
        assert tuple(M.v_ids(alpha)) == fresh.v_ids(alpha)
    ids = fresh.universe + (fresh.max_id + 1,)
    for rel in MSIG.names():
        assert M.facts(rel) == fresh.facts(rel)
        for pos, e in itertools.product((0, 1), ids):
            want = {t[1 - pos] for t in fresh.facts(rel) if len(t) == 2 and t[pos] == e}
            assert M.neighbours(rel, pos, e) == want
    for t in itertools.product(ids, repeat=2):
        assert M.has_fact("E", t) == fresh.has_fact("E", t)


@pytest.mark.parametrize("seed", range(8))
def test_apply_delta_matches_a_fresh_build(seed):
    """Each apply_delta child, and one thawed structure that _extend grows
    in place by the same deltas, against a fresh build of the same input."""
    rng = random.Random(seed)
    M = FinStructure(MSIG, ((0, fin(0)),), ())
    grown = M._thawed()
    elements, facts = [(0, fin(0))], []
    for _ in range(12):
        for alpha in rng.sample(MLEVELS, 3):
            M.v_ids(alpha)  # fill the cache the child extends
            grown.v_ids(alpha)  # and the list _extend grows
        delta = _random_delta(rng, M)
        before = _snapshot(M)
        child = apply_delta(M, delta)
        assert _snapshot(M) == before
        grown._extend(delta)
        elements += delta.new_elements
        facts += delta.new_facts
        fresh = FinStructure(MSIG, tuple(elements), tuple(facts))
        _assert_same(child, fresh)
        _assert_same(grown, fresh)
        M = child
    frozen = grown._freeze()
    _assert_same(frozen, fresh)
    assert type(frozen.universe) is tuple
    assert all(type(frozen.v_ids(alpha)) is tuple for alpha in MLEVELS)


@pytest.mark.parametrize("seed", range(4))
def test_constructor_holds_exactly_its_input(seed):
    """The constructor checked against its own input, not against another
    structure that apply_delta built."""
    rng = random.Random(seed)
    ids = rng.sample(range(40), 15)
    levels = {e: rng.choice(MLEVELS) for e in ids}
    facts = [
        (rel, tuple(rng.choice(ids) for _ in range(arity)))
        for rel, arity in (rng.choice(MSIG.relations) for _ in range(40))
    ]
    M = FinStructure(MSIG, tuple(levels.items()), tuple(facts))
    assert M.universe == tuple(sorted(ids))
    assert {e: M.level_of(e) for e in M.universe} == levels
    for alpha in MLEVELS:
        assert M.v_ids(alpha) == tuple(sorted(e for e in ids if levels[e] <= alpha))
    for rel, arity in MSIG.relations:
        given = {t for r, t in facts if r == rel}
        assert M.facts(rel) == given
        for pos, e in itertools.product((0, 1), ids + [max(ids) + 1]):
            want = {t[1 - pos] for t in given if arity == 2 and t[pos] == e}
            assert M.neighbours(rel, pos, e) == want


@pytest.mark.parametrize(
    "delta",
    [
        ExtensionDelta(((1, fin(1)),), ()),
        ExtensionDelta(((2, fin(1)), (2, fin(2))), ()),
        ExtensionDelta(((-1, fin(1)),), ()),
        ExtensionDelta(((2.0, fin(1)),), ()),
        ExtensionDelta((("2", fin(1)),), ()),
        ExtensionDelta(((True, fin(1)),), ()),
        ExtensionDelta(((2, fin(1)),), (("R", (2, 0)),)),
        ExtensionDelta(((2, fin(1)),), (("E", (2, 0, 1)),)),
        ExtensionDelta(((2, fin(1)),), (("E", (2,)),)),
        ExtensionDelta(((2, fin(1)),), (("E", (0, 1)),)),
        ExtensionDelta(((2, fin(1)),), (("E", (2, 9)),)),
        ExtensionDelta(((2, fin(1)),), (("E", (2, 1.0)),)),
    ],
    ids=[
        "collision", "duplicate", "negative", "float-id", "text-id", "bool-id",
        "unknown-relation", "arity-long", "arity-short", "old-only", "dangling",
        "float-in-fact",
    ],
)
def test_apply_delta_rejects_malformed_deltas(delta):
    M = _pair()
    before = _snapshot(M)
    with pytest.raises(StructureError):
        apply_delta(M, delta)
    assert _snapshot(M) == before


# -- serialization --------------------------------------------------------------------


def test_structure_json_round_trip_bit_exact():
    M = apply_delta(
        _pair(), ExtensionDelta(((2, omega_plus(1)),), (("E", (1, 2)),))
    )
    text = M.to_json()
    back = FinStructure.from_json(text)
    assert back == M
    assert back.to_json() == text


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["elements"][0].__setitem__(0, 0.7),
        lambda d: d["elements"][1].__setitem__(0, "1"),
        lambda d: d["elements"][2].__setitem__(0, 2.0),
        lambda d: d["elements"][0].__setitem__(0, False),
        lambda d: d["facts"]["E"][0].__setitem__(0, 0.2),
        lambda d: d["facts"]["E"][0].__setitem__(1, 1.0),
        lambda d: d["facts"]["E"][0].__setitem__(0, True),
        lambda d: d["signature"][0].__setitem__(1, 2.5),
        lambda d: d["signature"][0].__setitem__(1, True),
    ],
    ids=[
        "element-float", "element-text", "element-integral-float", "element-bool",
        "fact-float", "fact-integral-float", "fact-bool", "arity-float", "arity-bool",
    ],
)
def test_from_doc_rejects_ids_and_arities_that_are_not_ints(edit):
    M = apply_delta(_pair(), ExtensionDelta(((2, omega_plus(1)),), (("E", (1, 2)),)))
    doc = M.to_doc()
    edit(doc)
    with pytest.raises(StructureError):
        FinStructure.from_doc(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["elements"][0].__setitem__(1, 0),
        lambda d: d["elements"][1].__setitem__(1, ["fin2"]),
        lambda d: d.__setitem__("facts", [["E", [0, 1]]]),
    ],
    ids=["level-number", "level-list", "facts-list"],
)
def test_from_doc_rejects_levels_and_facts_of_the_wrong_shape(edit):
    """A level that is not text and facts that are not an object are
    rejected as bad structures, not met by an AttributeError."""
    doc = _pair().to_doc()
    edit(doc)
    with pytest.raises(StructureError):
        FinStructure.from_doc(doc)
