"""Formula AST, parser/printer, levels, and the schedule enumerators."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelsat.formula import (
    And,
    Eq,
    Exists,
    LevelOrdinal,
    Not,
    Or,
    ParseError,
    RelAtom,
    Signature,
    _formula_stream,
    conjoin,
    disjuncts,
    enumerate_schedule,
    fin,
    free_vars,
    is_quantifier_free,
    level_at,
    nnf,
    omega_plus,
    parse,
    parse_level,
    render,
    seeded_schedule,
    split_vars,
)
from levelsat.theory import PLUGINS, get_plugin

SIG = Signature((("E", 2),))


# -- levels -------------------------------------------------------------------


def test_level_total_order():
    assert fin(0) < fin(5)
    assert fin(3) < fin(4)
    assert not fin(4) < fin(4)
    # every finite level precedes every omega level
    for k in range(6):
        for j in range(6):
            assert fin(k) < omega_plus(j)
            assert not omega_plus(j) < fin(k)
    assert omega_plus(0) < omega_plus(3)


def test_successor_stays_on_its_side():
    assert fin(1).successor() == fin(2)
    assert omega_plus(0).successor() == omega_plus(1)
    lv = fin(0)
    for _ in range(10):
        lv = lv.successor()
        assert lv.tag == "fin"


_LEVELS = [fin(k) for k in range(4)] + [omega_plus(k) for k in range(4)]


def test_levels_compare_as_their_tag_and_index():
    for a, b in itertools.product(_LEVELS, repeat=2):
        pa, pb = (a.tag, a.index), (b.tag, b.index)
        assert (a < b, a <= b, a == b, a != b) == (pa < pb, pa <= pb, pa == pb, pa != pb)
        assert (hash(a) == hash(b)) == (pa == pb)
        assert a == pa  # a level equals the plain tuple (tag, index)


def test_level_reads_and_writes_as_before():
    shuffled = _LEVELS[::-1][1::2] + _LEVELS[::-1][::2]
    assert sorted(shuffled) == _LEVELS
    assert sorted(shuffled, key=lambda lv: (lv.tag, lv.index)) == _LEVELS
    assert repr(fin(1)) == "LevelOrdinal(tag='fin', index=1)"
    assert repr(omega_plus(0)) == "LevelOrdinal(tag='omega', index=0)"
    assert eval(repr(omega_plus(2)), {"LevelOrdinal": LevelOrdinal}) == omega_plus(2)
    assert [lv.render() for lv in _LEVELS] == [
        "fin0", "fin1", "fin2", "fin3", "omega+0", "omega+1", "omega+2", "omega+3",
    ]
    assert str(omega_plus(3)) == "omega+3"
    assert fin(3).successor() == fin(4) and omega_plus(3).successor() == omega_plus(4)
    assert type(fin(0).successor()) is LevelOrdinal
    for lv in _LEVELS:
        for back in (copy.deepcopy(lv), pickle.loads(pickle.dumps(lv))):
            assert type(back) is LevelOrdinal and back == lv


@pytest.mark.parametrize("tag, index", [("fin", -1), ("omega", -2), ("w", 0), ("Fin", 1), ("", 0)])
def test_bad_level_is_a_value_error(tag, index):
    with pytest.raises(ValueError):
        LevelOrdinal(tag, index)


def test_level_at_interleaves():
    got = [level_at(i) for i in range(5)]
    assert got == [fin(0), omega_plus(0), fin(1), omega_plus(1), fin(2)]


def test_parse_level_round_trip():
    for text, lv in [
        ("fin0", fin(0)),
        ("fin12", fin(12)),
        ("omega", omega_plus(0)),
        ("omega+0", omega_plus(0)),
        ("omega+3", omega_plus(3)),
    ]:
        assert parse_level(text) == lv
        assert parse_level(lv.render()) == lv
    with pytest.raises(ValueError):
        parse_level("fin-1")
    with pytest.raises(ValueError):
        parse_level("aleph0")


# -- parsing ------------------------------------------------------------------


def test_parse_builds_expected_ast():
    got = parse("E(x0, x1) & x0 = x1", SIG)
    assert got == And(RelAtom("E", ("x0", "x1")), Eq("x0", "x1"))


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse("E(x0)", SIG)


def test_parse_unknown_relation():
    with pytest.raises(ParseError):
        parse("Q(x0, x1)", SIG)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("E(x0, ", SIG)
    assert any(ch.isdigit() for ch in str(exc.value))


def test_parse_is_value_error():
    assert issubclass(ParseError, ValueError)


def test_hand_round_trips():
    for text in [
        "E(x0, x1)",
        "x0 = x1",
        "!(x0 = y0)",
        "E(x0, y0) & !(y0 = x0)",
        "E(x0, x1) | !E(x1, x0)",
        "exists y0. E(x0, y0)",
        "exists y0, y1. E(y0, y1) & !(y0 = y1)",
    ]:
        f = parse(text, SIG)
        assert parse(render(f), SIG) == f


def _formulas():
    vs = st.sampled_from(["x0", "x1", "y0", "y1"])
    atoms = st.one_of(
        st.tuples(vs, vs).map(lambda p: RelAtom("E", p)),
        st.tuples(vs, vs).map(lambda p: Eq(*p)),
    )
    qf = st.recursive(
        atoms,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
        ),
        max_leaves=8,
    )
    return st.one_of(qf, qf.map(lambda f: Exists(("y0",), f)))


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_render_parse_round_trip(f):
    assert parse(render(f), SIG) == f
    assert free_vars(parse(render(f), SIG)) == free_vars(f)


def test_split_vars_by_prefix():
    f = parse("E(x0, y0) & !(y1 = x1)", SIG)
    assert split_vars(f) == (("x0", "x1"), ("y0", "y1"))


def test_conjoin():
    a = parse("E(x0, x1)", SIG)
    b = parse("x0 = x1", SIG)
    assert conjoin([a]) == a
    assert conjoin([a, b]) == And(a, b)
    with pytest.raises(ValueError):
        conjoin([])


def test_disjuncts_flatten_the_top_level_or():
    f = parse("E(x0, y0) | (E(y0, x1) & !(y0 = x0)) | (x0 = x1 | E(y0, y0))", SIG)
    assert [render(d) for d in disjuncts(f)] == [
        "E(x0, y0)", "E(y0, x1) & !(y0 = x0)", "x0 = x1", "E(y0, y0)",
    ]
    g = parse("!(E(x0, y0) | E(y0, x1))", SIG)
    assert disjuncts(g) == (g,)


def test_nnf_pushes_not_to_the_atoms():
    cases = {
        # the negated universal axioms become positive-atom joins
        "!(!E(x0, x1) | !E(x1, x2) | E(x0, x2))": "E(x0, x1) & E(x1, x2) & !E(x0, x2)",
        "!(!E(x0, x1) | E(x1, x0))": "E(x0, x1) & !E(x1, x0)",
        "!(E(x0, x1) & (x0 = x1 | !E(x1, x0)))": "!E(x0, x1) | (!(x0 = x1) & E(x1, x0))",
        "!!!E(x0, x0)": "!E(x0, x0)",
        "!(exists y0. !!E(x0, y0))": "!(exists y0. !!E(x0, y0))",
        "E(x0, x1) | !(x0 = x1 & x1 = x0)": "E(x0, x1) | (!(x0 = x1) | !(x1 = x0))",
    }
    for text, want in cases.items():
        assert nnf(parse(text, SIG)) == parse(want, SIG), text


def test_quantifier_free_fragment():
    assert is_quantifier_free(parse("E(x0, y0) & !(y0 = x0)", SIG))
    assert not is_quantifier_free(parse("exists y0. E(x0, y0)", SIG))


# -- formula stream -------------------------------------------------------------


def _nodes(f):
    if isinstance(f, Not):
        return 1 + _nodes(f.body)
    if isinstance(f, (And, Or)):
        return 1 + _nodes(f.left) + _nodes(f.right)
    return 1


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_formula_stream_order(name):
    """Items come in (variable budget, node count, text) order with distinct
    texts. A formula first enters at budget max(node count, highest variable
    index + 1), and within one budget the order is (node count, text)."""
    items = list(itertools.islice(_formula_stream(get_plugin(name).signature), 3000))
    texts = [render(f) for f, _, _ in items]
    assert len(set(texts)) == len(texts)
    keys = []
    for (f, _, _), text in zip(items, texts):
        size = _nodes(f)
        budget = max(size, *(int(v[1:]) + 1 for v in free_vars(f)))
        keys.append((budget, size, text))
    assert keys == sorted(keys)
    assert keys[-1][0] >= 3  # the sample reaches a budget with three node counts


# -- fair schedule --------------------------------------------------------------


def test_enumerate_schedule_empty_prefix():
    assert enumerate_schedule(SIG, 0) == []


def test_enumerate_schedule_deterministic_and_prefix_stable():
    a = enumerate_schedule(SIG, 10)
    b = enumerate_schedule(SIG, 25)
    assert a == enumerate_schedule(SIG, 10)
    assert a == b[:10]


def test_enumerate_schedule_positions_sequential():
    entries = enumerate_schedule(SIG, 16)
    assert [e.position for e in entries] == list(range(16))


def test_enumerate_schedule_mixes_level_sides_early():
    entries = enumerate_schedule(SIG, 16)
    for m in range(1, 9):
        tags = {e.level.tag for e in entries[: 2 * m]}
        assert tags == {"fin", "omega"}


def test_enumerate_schedule_recurrence():
    entries = enumerate_schedule(SIG, 64)
    key0 = entries[0].key()
    hits = [e.position for e in entries if e.key() == key0]
    assert len(hits) >= 2
    # occurrence counts only grow with the prefix
    shorter = sum(1 for e in enumerate_schedule(SIG, 32) if e.key() == key0)
    assert shorter <= len(hits)


def test_enumerate_schedule_splits_partition_free_vars():
    for e in enumerate_schedule(SIG, 40):
        xs, ys = set(e.x_vars), set(e.y_vars)
        assert xs | ys == free_vars(e.formula)
        assert not xs & ys
        assert is_quantifier_free(e.formula)


def test_enumerate_schedule_empty_signature():
    entries = enumerate_schedule(Signature(()), 8)
    assert len(entries) == 8  # equality-only formulas still flow


# -- seeded schedule -------------------------------------------------------------


def test_seeded_even_positions_follow_fair_stream():
    pl = get_plugin("generic_equivalence")
    sched = seeded_schedule(pl.signature, pl.seeds(), 20, 4)
    fair = enumerate_schedule(pl.signature, 10)
    for t in range(10):
        even = sched[2 * t]
        assert even.position == 2 * t
        assert render(even.formula) == render(fair[t].formula)
        assert even.level == fair[t].level


def test_seeded_odd_positions_sweep_seeds_in_descending_blocks():
    pl = get_plugin("generic_equivalence")
    sched = seeded_schedule(pl.signature, pl.seeds(), 30, 4)
    seeds = pl.seeds()
    odd = [sched[i] for i in range(1, 30, 2)]
    # block r covers seed (r mod #seeds is not the layout: each seed gets a
    # full horizon block before the next seed starts)
    per_block = 4
    for b, chunk_start in enumerate(range(0, len(odd), per_block)):
        chunk = odd[chunk_start : chunk_start + per_block]
        seed_idx = b % len(seeds)
        r = b // len(seeds)
        want_levels = [
            level_at(r * per_block + (per_block - 1 - i)) for i in range(len(chunk))
        ]
        for entry, want in zip(chunk, want_levels):
            assert render(entry.formula) == render(seeds[seed_idx][0])
            assert entry.level == want


def test_seeded_prefix_stability():
    pl = get_plugin("generic_equivalence")
    assert seeded_schedule(pl.signature, pl.seeds(), 12, 4) == (
        seeded_schedule(pl.signature, pl.seeds(), 30, 4)[:12]
    )
