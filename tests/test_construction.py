"""The staged construction: M0, the three-case stage pass, invariants,
serialization, and finite model embedding."""

import itertools
import json
from dataclasses import replace

import pytest

from levelsat.construction import (
    CaseRecord,
    ConstructionError,
    EntryAudit,
    InternalFaultError,
    StageAudit,
    StageChain,
    _schedule_from_doc,
    build_chain,
    build_m0,
    build_stage,
    chain_from_doc,
    chain_to_doc,
    check_level_freeze,
    embed_model,
    load_chain,
    processed_axiom_levels,
    serialize_chain,
    strongly_satisfies,
    verify_axioms_on_levels,
)
from levelsat.evaluator import diag_key, evaluate, find_witness, row_witnessed, witnessed
from levelsat.formula import (
    ParseError,
    ScheduleEntry,
    Signature,
    fin,
    omega_plus,
    parse,
    seeded_schedule,
)
from levelsat.structures import FinStructure, canonical_json
from levelsat.theory import PLUGINS, RandomGraphTheory, get_plugin

import test_cli
from build_reference import reference_chain
from equivalence_reference import level_key, replay
from load_reference import reference_chain_from_doc

EQUIV = get_plugin("generic_equivalence")
RADO = get_plugin("random_graph")
ISET = get_plugin("infinite_set")


def _entry(plugin, text, level, position=0):
    f = parse(text, plugin.signature)
    from levelsat.formula import split_vars

    xs, ys = split_vars(f)
    return ScheduleEntry(f, xs, ys, level, position)


# -- M0 ------------------------------------------------------------------------


def test_m0_equivalence_forced_loop():
    M0 = build_m0(EQUIV)
    assert M0.universe == (0,)
    assert M0.level_of(0) == fin(0)
    assert M0.facts("E") == {(0, 0)}


def test_m0_random_graph_edgeless():
    M0 = build_m0(RADO)
    assert M0.universe == (0,)
    assert not M0.facts("R")


def test_m0_infinite_set_bare():
    M0 = build_m0(ISET)
    assert M0.universe == (0,)
    assert M0.level_of(0) == fin(0)


# -- strong satisfaction -----------------------------------------------------------


def test_m0_strongly_satisfies_classmate_seeking():
    M0 = build_m0(EQUIV)
    entry = _entry(EQUIV, "E(x0, y0)", fin(0))
    assert strongly_satisfies(EQUIV, M0, entry)  # y0 = e0 is internal


def test_unrealizable_entry_vacuously_strong():
    M0 = build_m0(RADO)
    entry = _entry(RADO, "R(y0, y0)", fin(0))
    assert strongly_satisfies(RADO, M0, entry)


def test_m0_fails_proper_classmate_before_processing():
    M0 = build_m0(EQUIV)
    entry = _entry(EQUIV, "E(x0, y0) & !(y0 = x0)", fin(0))
    assert not strongly_satisfies(EQUIV, M0, entry)


# -- one stage ---------------------------------------------------------------------


def test_case2_adds_classmate_at_next_level():
    M0 = build_m0(EQUIV)
    entry = _entry(EQUIV, "E(x0, y0) & !(y0 = x0)", fin(0))
    M1, audit = build_stage(EQUIV, M0, (entry,), 1, {})
    assert M1.size() == 2
    assert M1.level_of(1) == fin(1)
    assert M1.has_fact("E", (0, 1)) and M1.has_fact("E", (1, 0))
    (ea,) = audit.entries
    assert [r.case for r in ea.records] == [2]
    assert ea.records[0].new_ids == (1,)


def test_reprocessing_fires_case1():
    M0 = build_m0(EQUIV)
    entry = _entry(EQUIV, "E(x0, y0) & !(y0 = x0)", fin(0))
    frontier: dict = {}
    M1, _ = build_stage(EQUIV, M0, (entry,), 1, frontier)
    # full reprocessing (fresh frontier): the witness is found internally
    M2, audit = build_stage(EQUIV, M1, (entry,), 2, {})
    assert M2 == M1
    (ea,) = audit.entries
    assert ea.skipped == 0
    assert ea.internal == 1 and ea.records == ()
    # the skip cache shortcuts the same tuple with the same outcome
    M3, audit3 = build_stage(EQUIV, M1, (entry,), 2, frontier)
    assert M3 == M1
    (ea3,) = audit3.entries
    assert ea3.skipped == 1 and ea3.records == ()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("covered", [(), (0,), (0, 1), (0, 1, 2, 3, 4), (0, 1, 2, 3)])
def test_stage_skips_exactly_the_covered_tuples(k, covered):
    """The tuples a stage processes, in order, and its skip count, against
    the filtered product over V_alpha, when the entry's previous turn saw
    the prefix covered of it (none: this is its first turn). The formula is
    unrealizable, so every processed tuple leaves a case-3 record. A k=0
    entry has one tuple, processed on its first turn only."""
    text = " & ".join([f"!(y0 = x{i})" for i in range(k)] + ["!(y0 = y0)"])
    entry = _entry(ISET, text, fin(0))
    M = FinStructure(ISET.signature, tuple((e, fin(0)) for e in range(5)), ())
    frontier = {entry.key(): len(covered)} if covered else {}
    _, audit = build_stage(ISET, M, (entry,), 1, frontier)
    (ea,) = audit.entries
    done = [
        t for t in itertools.product(M.universe, repeat=k)
        if not (covered and set(t) <= set(covered))
    ]
    assert [r.a_tuple for r in ea.records] == done
    assert ea.internal == 0
    assert ea.skipped == 5**k - len(done)
    assert frontier == {entry.key(): M.size()}


def test_unrealizable_entry_fires_case3_everywhere():
    M0 = build_m0(RADO)
    entry = _entry(RADO, "R(y0, y0)", fin(0))
    M1, audit = build_stage(RADO, M0, (entry,), 1, {})
    assert M1 == M0
    (ea,) = audit.entries
    assert [r.case for r in ea.records] == [3]


def test_nondeterministic_oracle_is_a_fault():
    class FlipFlop(RandomGraphTheory):
        def __init__(self) -> None:
            super().__init__()
            self.calls = 0

        def extends_with_witness(self, *args, **kwargs):
            self.calls += 1
            if self.calls % 2 == 0:
                return None
            return super().extends_with_witness(*args, **kwargs)

    plugin = FlipFlop()
    entry = _entry(plugin, "R(x0, y0)", fin(0))
    with pytest.raises(InternalFaultError):
        build_stage(plugin, build_m0(plugin), (entry,), 1, {})


# -- chains ------------------------------------------------------------------------


def test_zero_stage_chain_is_m0():
    chain = build_chain(EQUIV, 0)
    assert len(chain.stages) == 1
    assert chain.stages[0] == build_m0(EQUIV)
    assert chain.audits == ()


def test_chain_monotone_and_valid(chains12):
    for name, chain in chains12.items():
        plugin = get_plugin(name)
        for prev, cur in zip(chain.stages, chain.stages[1:]):
            old = set(prev.universe)
            assert old <= set(cur.universe)
            for e in prev.universe:
                assert cur.level_of(e) == prev.level_of(e)
            for rel in prev.signature.names():
                assert {t for t in cur.facts(rel) if set(t) <= old} == set(
                    prev.facts(rel)
                )
        for M in chain.stages:
            assert plugin.validate_t_forall(M) == []


def test_witnesses_enter_at_successor_level(chains12):
    for name, chain in chains12.items():
        for audit, M in zip(chain.audits, chain.stages[1:]):
            for ea in audit.entries:
                succ = ea.level.successor()
                for r in ea.records:
                    for e in r.new_ids:
                        assert M.level_of(e) == succ


def test_stage_entries_sorted_by_level_then_position(chains12):
    for chain in chains12.values():
        by_pos = {e.position: e for e in chain.schedule}
        for audit in chain.audits:
            keys = [(ea.level, ea.position) for ea in audit.entries]
            assert keys == sorted(keys)
            for ea in audit.entries:
                assert by_pos[ea.position].level == ea.level


def test_level_sets_frozen_while_their_level_processes(chains12):
    """Within a stage, all entries sharing a level see the same V_alpha, and
    nothing they add lands inside it."""
    for chain in chains12.values():
        for audit in chain.audits:
            for prev_ea, ea in zip(audit.entries, audit.entries[1:]):
                if prev_ea.level == ea.level:
                    assert prev_ea.v_size == ea.v_size


def test_no_level_ever_changes(chains12):
    for chain in chains12.values():
        assert check_level_freeze(chain) == []


def _first_new_element(chain):
    """(stage, entry level, id) of the first element a case-2 record made."""
    for audit in chain.audits:
        for ea in audit.entries:
            for rec in ea.records:
                if rec.new_ids:
                    return audit.stage, ea.level, rec.new_ids[0]
    raise AssertionError("no case-2 record in the chain")


def test_each_turn_sees_a_prefix_of_the_next(chains12):
    """The skip rule rests on this: between two turns of an entry, its
    V_alpha grows only at the end. Each turn saw the first v_size ids of
    final's V_alpha (test_v_size_is_the_v_alpha_the_turn_saw), so the prefix
    rule is v_size never falling between turns of an obligation."""
    for chain in chains12.values():
        key = {e.position: e.key() for e in chain.schedule}
        seen = {}
        for audit in chain.audits:
            for ea in audit.entries:
                assert ea.v_size >= seen.get(key[ea.position], 0)
                seen[key[ea.position]] = ea.v_size


def test_level_freeze_catches_a_moved_level(chains12):
    chain = chains12["generic_equivalence"]
    stage, alpha, e = _first_new_element(chain)
    doc = chain.final.to_doc()
    doc["elements"] = [
        [eid, "omega+9" if eid == e else lvl] for eid, lvl in doc["elements"]
    ]
    moved = replace(chain, final=FinStructure.from_doc(doc))
    want = f"{alpha.successor().render()} at stage {stage}"
    assert check_level_freeze(moved) == [(stage, e, want, f"omega+9 at stage {stage}")]


def test_level_freeze_catches_a_wrong_birth_stamp(chains12):
    """A stage end shifted down by one moves the last id that stage made
    into the next stage."""
    chain = chains12["random_graph"]
    stage, _, _ = _first_new_element(chain)
    e = chain.ends[stage] - 1
    ends = chain.ends[:stage] + (e,) + chain.ends[stage + 1 :]
    level = chain.final.level_of(e).render()
    assert check_level_freeze(replace(chain, ends=ends)) == [
        (stage, e, f"{level} at stage {stage}", f"{level} at stage {stage + 1}")
    ]


def test_early_strong_satisfaction_spot_check():
    chain = build_chain(EQUIV, 5)
    for entry in chain.schedule[:5]:
        assert strongly_satisfies(EQUIV, chain.final, entry)


def test_existential_truth_persists_along_chain(chains12):
    chain = chains12["generic_equivalence"]
    f = parse("exists y0. E(x0, y0) & !(y0 = x0)", EQUIV.signature)
    first_true = None
    for n, M in enumerate(chain.stages):
        if evaluate(M, f, {"x0": 0}):
            first_true = n
            break
    assert first_true is not None
    for M in chain.stages[first_true:]:
        assert evaluate(M, f, {"x0": 0})


# -- relativized axiom verification ----------------------------------------------------


def test_nothing_processed_nothing_checked():
    chain = build_chain(EQUIV, 0)
    report = verify_axioms_on_levels(EQUIV, chain.final, [])
    assert report.ok and report.checked == ()


def test_processed_axiom_levels_hold(chains12):
    for name, chain in chains12.items():
        plugin = get_plugin(name)
        pairs = processed_axiom_levels(plugin, chain)
        report = verify_axioms_on_levels(plugin, chain.final, pairs)
        assert report.ok, report.failures
        if name == "generic_equivalence":
            assert ("classmate", omega_plus(1)) in pairs


def test_corrupted_level_is_detected(chains12):
    chain = chains12["generic_equivalence"]
    pairs = processed_axiom_levels(EQUIV, chain)
    M = chain.final
    # push the first fin1 element far up the chain; its classmate duties
    # toward V_fin0 elements can no longer be met inside V_fin1
    doc = M.to_doc()
    b = min(e for e in M.universe if M.level_of(e) == fin(1))
    doc["elements"] = [
        [eid, "omega+9" if eid == b else lvl] for eid, lvl in doc["elements"]
    ]
    corrupt = FinStructure.from_doc(doc)
    report = verify_axioms_on_levels(EQUIV, corrupt, pairs)
    assert not report.ok


# -- determinism and serialization ------------------------------------------------------


def test_chain_serialization_round_trip(chains12):
    chain = chains12["henson_triangle_free"]
    text = serialize_chain(chain)
    back = load_chain(text)
    assert back.plugin_name == chain.plugin_name
    assert back.stages == chain.stages
    assert back.audits == chain.audits
    assert [e.key() for e in back.schedule] == [e.key() for e in chain.schedule]
    assert serialize_chain(back) == text


@pytest.mark.parametrize("fixture", ["equiv30", "iset30", "rado30", "equiv60"])
def test_30_stage_chain_round_trip(request, fixture):
    """The audits and stage ends derived on load equal the ones the build
    kept, over enough stages for entries to take many turns."""
    chain = request.getfixturevalue(fixture)
    back = load_chain(serialize_chain(chain))
    assert back.ends == chain.ends and back.audits == chain.audits
    assert back.final == chain.final


def test_a_chain_file_keeps_no_birth_stamps(equiv30):
    doc = chain_to_doc(equiv30)
    assert doc.keys() == {"format", "plugin", "schedule", "final", "records", "embedded"}
    assert doc["format"] == 5 and doc["embedded"] == 0


def test_final_ids_must_begin_with_m0s():
    """A 0-stage chain whose one element is not M0's element 0, counted as
    embedded: no record names an id, so only the final ids show it."""
    doc = chain_to_doc(build_chain(EQUIV, 0))
    doc["final"]["elements"] = [[1, "fin0"]]
    doc["final"]["facts"]["E"] = [[1, 1]]
    doc["embedded"] = 1
    got = _load_outcome(chain_from_doc, doc)
    assert got == (ConstructionError, "final's ids are not M0's, the records' new ones and 1 embedded ones")
    assert got == _load_outcome(reference_chain_from_doc, doc)


@pytest.mark.parametrize(
    "level, facts", [("fin1", [[0, 0]]), ("fin0", [])], ids=["level-moved", "loop-missing"]
)
def test_stage_0_must_be_m0(level, facts):
    """A 0-stage chain has no record that could name element 0, so only the
    comparison of stage 0 with build_m0 rejects a wrong level or fact."""
    doc = chain_to_doc(build_chain(EQUIV, 0))
    doc["final"]["elements"] = [[0, level]]
    doc["final"]["facts"]["E"] = facts
    got = _load_outcome(chain_from_doc, doc)
    assert got == (ConstructionError, "stage 0 is not generic_equivalence's M0")
    assert got == _load_outcome(reference_chain_from_doc, doc)


def test_embedded_ids_load_born_at_the_last_stage(equiv30):
    """An element past the records' new ids loads when embedded counts it,
    and belongs to the last stage, as embed_model adds it."""
    doc = test_cli._append(1, 1)(chain_to_doc(equiv30))
    chain = chain_from_doc(doc)
    assert chain == reference_chain_from_doc(doc)
    assert chain.ends == equiv30.ends[:-1] + (equiv30.ends[-1] + 1,)
    assert chain.stage_of([equiv30.final.size()]) == 30
    assert chain.audits == equiv30.audits
    assert chain_to_doc(chain) == doc


# -- the loader against its per-turn reference ----------------------------------------


def _load_outcome(load, doc):
    """The chain load(doc) returns, or the class and message of what it
    raises."""
    try:
        return load(doc)
    except Exception as e:
        return type(e), str(e)


def _corruptions(test):
    """The (id, corrupt) cases of a test parametrized over corrupt."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return list(zip(mark.kwargs["ids"], mark.args[1]))


@pytest.mark.parametrize(
    "source", [f"12:{name}" for name in sorted(PLUGINS)] + ["equiv30", "rado30", "equiv60"]
)
def test_loader_matches_the_per_turn_reference(request, chains12, source):
    """The loader that does the per-entry work once returns the chain that
    re-sorting, re-reading V_alpha and re-rendering keys at every turn
    returns, on the bundled 12-stage chains and longer ones."""
    if source.startswith("12:"):
        chain = chains12[source[3:]]
    else:
        chain = request.getfixturevalue(source)
    doc = chain_to_doc(chain)
    back = chain_from_doc(doc)
    assert back == reference_chain_from_doc(doc)
    assert back == chain


@pytest.mark.parametrize(
    "case",
    _corruptions(test_cli.test_malformed_chain_file_is_a_usage_error)
    + _corruptions(test_cli.test_chain_file_ids_must_be_ints),
    ids=lambda case: case[0],
)
def test_loader_rejects_what_the_reference_rejects(equiv30, case):
    """On every corrupted chain file of the command line tests, the two
    loaders raise the same exception with the same message."""
    _, corrupt = case
    doc = corrupt(json.loads(serialize_chain(equiv30)))
    got = _load_outcome(chain_from_doc, doc)
    assert type(got) is tuple, "a corrupted chain loaded"
    assert got == _load_outcome(reference_chain_from_doc, doc)


_SPREAD = "E(x0, y0) & !(y0 = x0)"


def _crafted_schedule():
    """Entries that share a formula text but differ in variables or level,
    one obligation at two positions, two texts of equal length, and fin0
    positions that fall as the index rises, so that turn order is not
    schedule order."""
    rows = [
        (_SPREAD, ("x0",), ("y0",), fin(0), 3),
        (_SPREAD, ("x0",), ("y0",), fin(1), 1),  # another level
        (_SPREAD, (), ("x0", "y0"), fin(1), 5),  # another variable split
        ("!E(x0, y0)", ("x0",), ("y0",), fin(0), 0),
        (_SPREAD, ("x0",), ("y0",), fin(0), 2),  # entry 0's obligation again
        ("E(x0, y0) & !(x0 = y0)", ("x0",), ("y0",), fin(1), 4),  # as long as _SPREAD
    ]
    return tuple(
        ScheduleEntry(parse(text, EQUIV.signature), xs, ys, level, pos)
        for text, xs, ys, level, pos in rows
    )


def test_crafted_schedule_loads_with_one_key_per_obligation():
    schedule = _crafted_schedule()
    chain = build_chain(EQUIV, len(schedule), schedule=schedule)
    doc = chain_to_doc(chain)
    _, keys = _schedule_from_doc(doc["schedule"], EQUIV.signature)
    assert len(set(keys)) == 5 and keys[4] == keys[0]
    back = chain_from_doc(doc)
    assert back == chain == reference_chain_from_doc(doc)
    assert back.schedule[0].formula is back.schedule[4].formula
    for audit in back.audits:
        turns = [(ea.level, ea.position) for ea in audit.entries]
        assert turns == sorted(turns)
    # position 2 first takes its turn at stage 5, before position 3, and
    # skips what its obligation processed at position 3 in stage 4
    stage4, stage5 = ({ea.position: ea for ea in a.entries} for a in back.audits[3:5])
    assert stage5[2].skipped == stage4[3].v_size > 0


def test_a_repeated_bad_formula_is_rejected_at_its_first_entry():
    """Entries 1 and 4 hold one text that does not parse, and entry 2's
    position is not an int: the parse error at entry 1 comes first."""
    schedule = _crafted_schedule()
    doc = chain_to_doc(build_chain(EQUIV, len(schedule), schedule=schedule))
    for i in (1, 4):
        doc["schedule"][i]["formula"] = "E(x0, y0) &"
    doc["schedule"][2]["position"] = "5"
    got = _load_outcome(chain_from_doc, doc)
    assert got[0] is ParseError
    assert got == _load_outcome(reference_chain_from_doc, doc)


def _queries(M, levels):
    """What a caller can read from M: its file form, V_alpha at the given
    levels and every neighbour lookup."""
    return (
        M.to_json(),
        [M.v_ids(alpha) for alpha in levels],
        {
            (rel, pos, e): set(M.neighbours(rel, pos, e))
            for rel in M.signature.names() for pos in (0, 1)
            for e in M.universe + (M.max_id + 1,)
        },
    )


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_stage_view_matches_stage_by_stage_build(chains12, name):
    """The replayed stages equal the structures a build_stage loop keeps,
    each stage's neighbour index matches a scan of its facts, the stage
    ends and the audits (v_size derived on load) survive a file round trip,
    and an embedding leaves stages 0..n-1 alone while its new elements
    belong to stage n."""
    plugin, chain = get_plugin(name), chains12[name]
    schedule = tuple(seeded_schedule(plugin.signature, plugin.seeds(), 12, 4))
    kept, frontier = [build_m0(plugin)], {}
    levels = sorted({lv for e in schedule for lv in (e.level, e.level.successor())})
    for n in range(1, 13):
        prev = kept[-1]
        before = _queries(prev, levels)
        M, _ = build_stage(plugin, prev, schedule[:n], n, frontier)
        assert _queries(prev, levels) == before  # build_stage grows a copy
        kept.append(M)
    assert list(chain.stages) == kept
    for M in chain.stages:
        for rel, pos in itertools.product(plugin.signature.names(), (0, 1)):
            want: dict[int, set[int]] = {}
            if plugin.signature.arity(rel) == 2:
                for t in M.facts(rel):
                    want.setdefault(t[pos], set()).add(t[1 - pos])
            for e in M.universe + (M.max_id + 1,):
                assert M.neighbours(rel, pos, e) == want.get(e, set())
    back = load_chain(serialize_chain(chain))
    assert back.ends == chain.ends and back.audits == chain.audits

    # one more element than the chain has forces the embedding to grow it
    m, M0 = chain.final.size() + 1, kept[0]
    A = FinStructure(
        plugin.signature,
        tuple((i, fin(0)) for i in range(m)),
        tuple(
            (rel, (i,) * len(t))
            for rel in plugin.signature.names()
            for t in M0.facts(rel)
            for i in range(m)
        ),
    )
    _, grown = embed_model(plugin, A, chain)
    new = set(grown.final.universe) - set(chain.final.universe)
    assert new and {grown.stage_of([e]) for e in new} == {12}
    assert grown.stages[:12] == chain.stages[:12]
    assert grown.stages[12] == grown.final
    back = load_chain(serialize_chain(grown))
    assert back.ends == grown.ends and back.audits == grown.audits
    assert back.final == grown.final


def test_new_ids_follow_each_record_not_each_entry():
    """A crafted infinite_set chain: at stage 2 the fin1 entry's second
    record reuses element 2, which its first record made. Its new id is 3
    alone, because the watermark moves past each record's new ids."""
    pair = "!(y0 = x0) & !(y1 = x0) & !(y0 = y1)"
    doc = {
        "format": 5,
        "plugin": "infinite_set",
        "schedule": [
            {"position": 0, "formula": "!(y0 = x0)", "x_vars": ["x0"], "y_vars": ["y0"],
             "level": "fin0"},
            {"position": 1, "formula": pair, "x_vars": ["x0"], "y_vars": ["y0", "y1"],
             "level": "fin1"},
        ],
        "final": {
            "signature": [],
            "elements": [[0, "fin0"], [1, "fin1"], [2, "fin2"], [3, "fin2"]],
            "facts": {},
        },
        "records": [[[[[0], [1]]]], [[], [[[0], [1, 2]], [[1], [2, 3]]]]],
        "embedded": 0,
    }
    chain = chain_from_doc(doc)
    assert chain.ends == (1, 2, 4)
    stage1, stage2 = chain.audits
    assert stage1.entries[0].records == (CaseRecord((0,), (1,), (1,)),)
    assert stage2.entries[1].v_size == 2
    assert stage2.entries[1].records == (
        CaseRecord((0,), (1, 2), (2,)),
        CaseRecord((1,), (2, 3), (3,)),
    )
    assert serialize_chain(chain) == canonical_json(doc)


def test_an_empty_witness_is_case_2_and_written_as_a_list():
    rec = CaseRecord((0,), ())
    audit = StageAudit(1, (EntryAudit(0, fin(0), 1, 0, 0, (rec,)),))
    chain = StageChain("infinite_set", (), build_m0(ISET), (1, 1), (audit,))
    assert rec.case == 2 and CaseRecord((0,), None).case == 3
    assert chain_to_doc(chain)["records"][0][0] == [[[0], []]]  # stage 1, entry 0


def test_build_chain_deterministic():
    a = serialize_chain(build_chain(EQUIV, 8))
    b = serialize_chain(build_chain(EQUIV, 8))
    assert a == b


# -- case 1: one witness test per entry turn ---------------------------------------


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_witness_test_matches_find_witness_on_every_entry(chains12, name):
    """On every stage of a bundled 12-stage chain, each schedule entry's
    witness test, made once, answers every parameter tuple over V_alpha as
    a find_witness search per tuple does, and every tuple of a row that the
    row rule settles has a find_witness witness. The plugin's AE axioms are
    checked at each scheduled level too: the 12 entries do not reach
    generic_equivalence's classmate_avoiding."""
    chain = chains12[name]
    entries = chain.schedule[: chain.n_stages]
    axioms = [(ax.formula, ax.x_vars, ax.y_vars) for ax in get_plugin(name).ae_axioms]
    levels = sorted({e.level for e in entries})
    entries += tuple(ScheduleEntry(*ax, level, 0) for ax in axioms for level in levels)
    settled_rows = 0
    for M in chain.stages:
        for entry in entries:
            f, xs, ys, succ = entry.formula, entry.x_vars, entry.y_vars, entry.level.successor()
            test, settles = witnessed(M, f, xs, ys, succ), row_witnessed(M, f, xs, ys, succ)
            v_alpha = M.v_ids(entry.level)
            settled = {a0 for a0 in v_alpha if settles is not None and settles(a0)}
            settled_rows += len(settled)
            for a_bar in itertools.product(v_alpha, repeat=len(xs)):
                want = find_witness(M, f, dict(zip(xs, a_bar)), ys, succ) is not None
                assert test(a_bar) == want, (entry, a_bar)
                assert want or a_bar[0] not in settled, (entry, a_bar)
    assert settled_rows > 0 or name != "generic_equivalence"


@pytest.mark.parametrize(
    "name, text, applies",
    [
        ("generic_equivalence", "E(x0, y0) & !(y0 = x0) & !(y0 = x1)", True),
        ("generic_equivalence", "E(x0, y0) & !(y0 = x1) & !(y0 = x2)", True),
        ("infinite_set", "!(y0 = x0) & !(y0 = x1)", True),
        # one parameter: a row is one tuple
        ("generic_equivalence", "E(x0, y0) & !(y0 = x0)", False),
        # a conjunct over a later parameter
        ("generic_equivalence", "E(x0, y0) & !(x0 = x1)", False),
        # relation avoids over a later parameter drop a class or neighbours
        ("generic_equivalence", "E(x0, y0) & !E(x1, y0)", False),
        ("random_graph", "R(x0, y0) & !R(x1, y0)", False),
        # tied to a later parameter
        ("random_graph", "R(x0, y0) & R(x1, y0)", False),
        # a top-level Or
        ("random_graph", "(R(x0, y0) & !(y0 = x1)) | R(x1, y0)", False),
        # two slots
        ("generic_equivalence", "!E(x0, y0) & !E(x0, y1) & !E(y0, y1) & !(y0 = x1)", False),
    ],
)
def test_the_row_rule_applies_where_later_parameters_drop_one_value_each(name, text, applies):
    """row_witnessed makes a rule exactly for one slot whose later
    parameters appear only in avoids !(y0 = x_j), and is None otherwise."""
    plugin = get_plugin(name)
    entry = _entry(plugin, text, fin(0))
    M = build_m0(plugin)
    rule = row_witnessed(M, entry.formula, entry.x_vars, entry.y_vars, fin(1))
    assert (rule is not None) == applies


_ROW_SCHEDULES = {
    # 1 in a class of its own, 2 in 0's; the m = 2 entry's row 0 has a class
    # of m members at stage 3, whose case-2 step gives it m + 1; then a
    # conjunct over a later parameter, which (0, 0) fails
    "generic_equivalence": (
        ("!E(x0, y0)", fin(0)),
        ("E(x0, y0) & !(y0 = x0)", fin(0)),
        ("E(x0, y0) & !(y0 = x1) & !(y0 = x2)", fin(1)),
        ("E(x0, y0) & !(x0 = x1)", fin(1)),
    ),
    # 0 gets two neighbours, 1 and their common neighbour 2, so !R(x1, y0)
    # drops both of 0's neighbours at (0, 0)
    "random_graph": (
        ("R(x0, y0)", fin(0)),
        ("R(x0, y0) & R(x1, y0)", fin(1)),
        ("R(x0, y0) & !R(x1, y0)", fin(1)),
    ),
}


@pytest.mark.parametrize("name", sorted(_ROW_SCHEDULES))
def test_crafted_row_schedule_matches_the_per_tuple_reference(name):
    """A row with as many candidates as it has later equality avoids is not
    settled, one with a candidate more is, and entries the rule does not
    cover are tested per tuple: the build writes the reference's chain."""
    plugin = get_plugin(name)
    rows = _ROW_SCHEDULES[name]
    schedule = tuple(_entry(plugin, text, level, pos) for pos, (text, level) in enumerate(rows))
    chain = build_chain(plugin, len(schedule), schedule=schedule)
    assert serialize_chain(chain) == serialize_chain(
        reference_chain(plugin, len(schedule), schedule)
    )
    if name == "generic_equivalence":
        e = schedule[2]
        before, after = (
            row_witnessed(M, e.formula, e.x_vars, e.y_vars, fin(2)) for M in chain.stages[2:4]
        )
        assert [sorted(M.neighbours("E", 0, 0)) for M in chain.stages[2:4]] == [[0, 2], [0, 2, 3]]
        assert not before(0) and after(0)


_LONG_BUILDS = {
    ("generic_equivalence", 30): "equiv30",
    ("generic_equivalence", 60): "equiv60",
    ("infinite_set", 30): "iset30",
    ("random_graph", 30): "rado30",
}


@pytest.mark.parametrize(
    "name, n",
    [(name, 12) for name in sorted(PLUGINS)]
    # generic_equivalence 30, the benchmark's three workload builds, and every
    # plugin past 12 stages
    + [
        ("generic_equivalence", 30),
        ("generic_equivalence", 60),
        ("random_graph", 30),
        ("henson_triangle_free", 36),
        ("infinite_set", 30),
        ("random_graph", 36),
    ],
)
def test_build_matches_the_per_tuple_reference(request, chains12, name, n):
    """A build that settles rows by the row rule, skips idle turns and asks
    case 1 of one witness test per turn otherwise writes the same chain,
    byte for byte, as one find_witness search per tuple."""
    if n == 12:
        chain = chains12[name]
    elif (name, n) in _LONG_BUILDS:
        chain = request.getfixturevalue(_LONG_BUILDS[name, n])
    else:
        chain = build_chain(get_plugin(name), n)
    assert serialize_chain(reference_chain(get_plugin(name), n)) == serialize_chain(chain)


# -- memoised oracle answers ---------------------------------------------------------


def _crafted_graph_schedule(plugin):
    """Two isolated points at fin1 from a two-slot entry, a three-parameter
    entry whose answers depend on the order of the parameters' ids, edges
    from fin0, a two-slot entry whose witness takes an old id, and a common
    neighbour, which the triangle-free graph refuses to an edge."""
    rows = [
        ("!(y0 = y1) & !R(y0, y1) & !(y0 = x0) & !(y1 = x0)", fin(0)),
        ("(R(x0, y0) & !R(x1, y0) & !R(x2, y0)) | (!R(x0, y0) & R(x1, y0) & R(x2, y0))", fin(1)),
        ("R(x0, y0)", fin(0)),
        ("R(x0, y0) & R(y0, y1) & !(y1 = x0)", fin(1)),
        ("R(x0, y0) & R(x1, y0)", fin(1)),
    ]
    return tuple(_entry(plugin, text, level, pos) for pos, (text, level) in enumerate(rows))


# random_graph first: a memo shared across builds would hand its common
# neighbours to the triangle-free build
@pytest.mark.parametrize("name", ["random_graph", "henson_triangle_free"])
def test_crafted_graph_schedule_matches_the_per_tuple_reference(name):
    """The memo is keyed by the diagram and the id order, held per build and
    used for one-slot entries only: a build of the crafted schedule writes
    the reference's chain, which asks the oracle once per tuple."""
    plugin = get_plugin(name)
    schedule = _crafted_graph_schedule(plugin)
    chain = build_chain(plugin, len(schedule), schedule=schedule)
    assert serialize_chain(chain) == serialize_chain(
        reference_chain(plugin, len(schedule), schedule)
    )
    records = {}
    for audit in chain.audits:
        for ea in audit.entries:
            records.setdefault(ea.position, []).extend(ea.records)
    assert len(records[1]) > 1  # the order-dependent entry reaches the oracle
    assert any(set(r.witness) - set(r.new_ids) for r in records[3] if r.witness)
    refused = [r for r in records[4] if r.case == 3]
    assert bool(refused) == (name == "henson_triangle_free")


def _counting(name):
    class Counting(type(get_plugin(name))):
        calls = 0

        def extends_with_witness(self, *args, **kwargs):
            self.calls += 1
            return super().extends_with_witness(*args, **kwargs)

    return Counting()


@pytest.mark.parametrize(
    "name, n, calls",
    [("random_graph", 30, 38), ("henson_triangle_free", 36, 34), ("generic_equivalence", 60, 188)],
)
def test_oracle_calls_are_pinned(name, n, calls):
    """Oracle calls of the benchmark's three workload builds: a memo miss
    asks twice, a hit not at all. generic_equivalence makes no memo."""
    plugin = _counting(name)
    build_chain(plugin, n)
    assert plugin.calls == calls


@pytest.mark.parametrize(
    "name, n, tests",
    [
        ("random_graph", 30, 3035),
        ("henson_triangle_free", 36, 2841),
        ("generic_equivalence", 60, 4086),
    ],
)
def test_case1_tests_are_pinned(monkeypatch, name, n, tests):
    """Per-tuple witness tests of the benchmark's three workload builds. The
    row rule settles most of generic_equivalence's classmate_avoiding rows
    (34,950 tests without it) and none on the graphs."""
    import levelsat.construction as construction

    calls = 0
    made = construction.witnessed

    def counting(*args):
        test = made(*args)

        def counted(a_bar):
            nonlocal calls
            calls += 1
            return test(a_bar)

        return counted

    monkeypatch.setattr(construction, "witnessed", counting)
    build_chain(get_plugin(name), n)
    assert calls == tests


def test_a_memo_hit_is_rechecked():
    """A memoised answer goes through the witness re-check like the
    oracle's: a planted template whose fresh point has no edge fails it."""
    entry = _entry(RADO, "R(x0, y0)", fin(0))
    M0 = build_m0(RADO)
    memo = {(entry.key(), diag_key(M0, (0,)), (0,)): ((1,), (), (1,))}
    with pytest.raises(InternalFaultError):
        build_stage(RADO, M0, (entry,), 1, {}, memo)


# -- stages and turns as prefix lengths ------------------------------------------------


_SOURCES = {
    **{f"12:{name}": (name, 12) for name in sorted(PLUGINS)},
    "equiv30": ("generic_equivalence", 30),
    "rado30": ("random_graph", 30),
    "grown": ("generic_equivalence", 12),
}


@pytest.fixture(scope="module")
def reference_builds(request, chains12):
    """source -> (chain, its per-tuple reference build, the (stage,
    position, V_alpha) of each reference turn), built on first use. The
    source "grown" is the 12-stage generic_equivalence chain grown by
    embed_model, against the reference of the chain it grew from."""
    cache = {}

    def get(source):
        if source not in cache:
            name, n = _SOURCES[source]
            chain = chains12[name] if n == 12 else request.getfixturevalue(source)
            if source == "grown":
                m = chain.final.size() + 1
                A = FinStructure(
                    EQUIV.signature,
                    tuple((i, fin(0)) for i in range(m)),
                    tuple(("E", (i, i)) for i in range(m)),
                )
                _, grown = embed_model(EQUIV, A, chain)
                assert grown.final.size() > chain.final.size()
                chain = grown
            views: list = []
            ref = reference_chain(get_plugin(name), n, views=views)
            cache[source] = chain, ref, views
        return cache[source]

    return get


def _built_or_loaded(chain, form):
    return chain if form == "built" else load_chain(serialize_chain(chain))


@pytest.mark.parametrize("form", ["built", "loaded"])
@pytest.mark.parametrize("source", list(_SOURCES))
def test_stages_are_prefixes_cut_at_their_ends(reference_builds, source, form):
    """Stage s holds the first ends[s] ids of final, ends[s] is the size
    of the structure the per-tuple reference build held after stage s (the
    last stage also holds the ids an embedding added), and stage_of(id) is
    the first stage whose end lies past the id."""
    chain, ref, _ = reference_builds(source)
    chain = _built_or_loaded(chain, form)
    M, ends = chain.final, chain.ends
    assert ends == (*ref.ends[:-1], M.size())
    assert M.universe == tuple(range(M.size()))
    assert len(chain.stages) == len(ends) == chain.n_stages + 1
    for s, stage in enumerate(chain.stages):
        assert stage.universe == M.universe[: ends[s]]
    for e in M.universe:
        assert chain.stage_of([e]) == next(s for s, end in enumerate(ends) if e < end)
    assert chain.stage_of([]) == 0


@pytest.mark.parametrize("form", ["built", "loaded"])
@pytest.mark.parametrize("source", list(_SOURCES))
def test_v_size_is_the_v_alpha_the_turn_saw(reference_builds, source, form):
    """Each turn's v_size is |V_alpha| as the per-tuple reference build
    read it from the structure at the turn's start, and that V_alpha is
    the first v_size ids of final's V_alpha."""
    chain, _, views = reference_builds(source)
    chain = _built_or_loaded(chain, form)
    turns = [(a.stage, ea) for a in chain.audits for ea in a.entries]
    assert [(stage, ea.position) for stage, ea in turns] == [v[:2] for v in views]
    for (_, ea), (_, _, v_alpha) in zip(turns, views):
        assert ea.v_size == len(v_alpha)
        assert chain.final.v_ids(ea.level)[: ea.v_size] == v_alpha


@pytest.mark.parametrize(
    "plugin, texts",
    [
        (EQUIV, ("!E(x0, y0)", "E(x0, y0) & !(y0 = x0) & !(y0 = x1)")),
        (RADO, ("!R(x0, y0) & !(y0 = x0)", "R(x0, y0) & !(y0 = x1)")),
    ],
    ids=["generic_equivalence", "random_graph"],
)
def test_a_case2_step_gives_later_tuples_of_its_turn_a_witness(plugin, texts):
    """The first entry puts two unrelated elements, 0 and 1, in V_fin1. On
    the second entry's turn, (0, 0) has no witness, and its case-2 step adds
    one, which (0, 1) then finds as case 1. A witness test kept from before
    that step would still offer 0 no candidate, and ask the oracle again."""
    schedule = tuple(
        replace(_entry(plugin, text, fin(i)), position=i) for i, text in enumerate(texts)
    )
    chain = build_chain(plugin, 2, schedule=schedule)
    last = chain.audits[-1].entries[-1]
    assert [r.a_tuple for r in last.records][:1] == [(0, 0)] and last.internal > 0
    assert serialize_chain(chain) == serialize_chain(reference_chain(plugin, 2, schedule))


# -- independent replay of the equivalence chain ------------------------------------------


def test_equivalence_chain_matches_independent_replay(equiv30):
    """Pure class-bookkeeping simulator agrees with the machine on every
    stage: universe ids, levels, and the whole class partition."""
    sizes, psi, phi, b, sim = replay(equiv30.schedule, 30)
    assert b == 3
    assert sizes == [len(M.universe) for M in equiv30.stages]
    M = equiv30.final
    assert {e: (M.level_of(e).tag, M.level_of(e).index) for e in M.universe} == sim.level
    def machine_partition(M):
        parts = {}
        for e in M.universe:
            rep = min(u for u in M.universe if M.has_fact("E", (u, e)))
            parts.setdefault(rep, set()).add(e)
        return sorted(frozenset(s) for s in parts.values())
    assert machine_partition(M) == sorted(
        frozenset(m) for m in sim.members.values() if m
    )
    assert psi[28:] == [35, 35, 35]
    assert psi[16] == 27
    assert phi[8:] == [3] * 23


def test_replay_rejects_unknown_obligations():
    from equivalence_reference import EquivSim

    sim = EquivSim()
    with pytest.raises(AssertionError):
        sim.process_entry("E(x0, y0) | E(y0, y0)", 1, 1, ("fin", 0), ("?", ("fin", 0)))


# -- embedding ---------------------------------------------------------------------------


def test_embed_single_element(chains12):
    chain = chains12["infinite_set"]
    A = FinStructure(ISET.signature, ((0, fin(0)),), ())
    hit = embed_model(ISET, A, chain)
    assert hit is not None
    mapping, chain2 = hit
    img = mapping[0]
    assert chain2.final.level_of(img) <= fin(1)


def test_an_embedding_into_a_zero_stage_chain_round_trips():
    """With no stage past M0, the embedded ids belong to stage 0."""
    A = FinStructure(ISET.signature, ((0, fin(0)), (1, fin(0))), ())
    _, grown = embed_model(ISET, A, build_chain(ISET, 0))
    assert grown.ends == (2,)
    doc = chain_to_doc(grown)
    assert doc["embedded"] == 1
    assert chain_from_doc(doc) == grown == reference_chain_from_doc(doc)


def test_embed_edge_into_random_graph_chain(chains12):
    chain = chains12["random_graph"]
    A = FinStructure(
        RADO.signature,
        ((0, fin(0)), (1, fin(0))),
        (("R", (0, 1)), ("R", (1, 0))),
    )
    hit = embed_model(RADO, A, chain)
    assert hit is not None
    mapping, chain2 = hit
    M = chain2.final
    assert mapping[0] != mapping[1]
    assert M.has_fact("R", (mapping[0], mapping[1]))
    assert M.level_of(mapping[0]) <= fin(1)
    assert M.level_of(mapping[1]) <= fin(2)
    assert diag_key(M, (mapping[0], mapping[1])) == diag_key(A, (0, 1))


def test_embed_two_classes_into_equivalence_chain(chains12):
    chain = chains12["generic_equivalence"]
    facts = []
    for u, v in itertools.product((0, 1), repeat=2):
        facts.append(("E", (u, v)))
    facts.append(("E", (2, 2)))
    A = FinStructure(
        EQUIV.signature, ((0, fin(0)), (1, fin(0)), (2, fin(0))), tuple(facts)
    )
    hit = embed_model(EQUIV, A, chain)
    assert hit is not None
    mapping, chain2 = hit
    M = chain2.final
    imgs = [mapping[i] for i in (0, 1, 2)]
    assert len(set(imgs)) == 3
    assert M.has_fact("E", (imgs[0], imgs[1]))
    assert not M.has_fact("E", (imgs[0], imgs[2]))
    assert diag_key(M, tuple(imgs)) == diag_key(A, (0, 1, 2))
    for i, a in enumerate((0, 1, 2)):
        assert M.level_of(mapping[a]) <= fin(i + 1)


def test_embed_signature_mismatch_rejected(chains12):
    chain = chains12["random_graph"]
    A = FinStructure(Signature((("Q", 1),)), ((0, fin(0)),), ())
    with pytest.raises(ValueError):
        embed_model(RADO, A, chain)
