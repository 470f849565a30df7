"""Finite structures, the level chain, deltas, and serialization."""

import pytest

from levelsat.formula import Signature, fin, omega_plus
from levelsat.structures import (
    ExtensionDelta,
    FinStructure,
    StructureError,
    apply_delta,
    canonical_json,
    delta_from_doc,
    delta_to_doc,
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


# -- serialization --------------------------------------------------------------------


def test_structure_json_round_trip_bit_exact():
    M = apply_delta(
        _pair(), ExtensionDelta(((2, omega_plus(1)),), (("E", (1, 2)),))
    )
    text = M.to_json()
    back = FinStructure.from_json(text)
    assert back == M
    assert back.to_json() == text


def test_delta_doc_round_trip():
    d = ExtensionDelta(((5, fin(2)), (6, omega_plus(0))), (("E", (5, 6)),))
    assert delta_from_doc(delta_to_doc(d)) == d


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
