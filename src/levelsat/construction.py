"""The staged construction: schedules in, audited stage chains out.

Stage n takes the first n schedule entries, sorts them by level, then
schedule position (the turn key _turn), and processes each
entry against the current structure.
For an entry (phi, x-bar, y-bar, alpha) and each parameter tuple a-bar over
V_alpha (snapshot taken when the entry's turn starts, lexicographic order):

  case 1: some witness for phi(a-bar, y-bar) already lies inside V_{alpha+1};
          the structure is unchanged and the tuple is only counted. A turn
          settles whole rows, the tuples that share a-bar's first parameter,
          by the row rule (evaluator.row_witnessed), and asks one witness
          test (evaluator.witnessed) per tuple of the other rows: the rule
          settles E(x0, y0) & !(y0 = x0) & !(y0 = x1) for every x1 once x0's
          class in V_{alpha+1} has two members besides x0. A settled row
          needs no re-check: its tuples are all case 1, so M does not change
          inside it. Rule and test are made again after each case-2 step:
          only case 2 changes M, so every answer is find_witness's on the
          current M. A turn whose V_alpha has not grown since its last costs
          one comparison.
  case 2: no internal witness, but the theory oracle can realize phi in an
          extension; its witness is applied, new elements entering at exactly
          alpha+1, old witness components restricted to V_{alpha+1} so the
          witness itself lies inside V_{alpha+1}. The oracle starts at one
          fresh element (min_new=1), and that is exact: its pass with none
          would search its pool, V_{alpha+1} plus the parameters, which lie
          in V_alpha, so exactly the ids where the witness test just failed.
          For an entry with one y slot, that fresh element is the witness,
          so the oracle never reads its pool; where the plugin declares its
          answer fixed by a-bar's atomic diagram and the order of its ids
          (TheoryPlugin), the build memoises the answer, refusals included,
          over a-bar's positions and offsets from max_id + 1 under (entry,
          diagram, id order). A hit asks the oracle nothing, a miss asks it
          twice and compares (the determinism check), and every answer goes
          through the structure's checks and the witness re-check.
  case 3: the oracle reports phi(a-bar, y-bar) unrealizable; unchanged. This
          verdict is final: extensions only shrink what is realizable.

Levels are frozen: an element's level never changes once assigned, and
witnesses at level alpha+1 can never land inside any V_beta with beta <=
alpha, so the V_alpha sets only grow by earlier-level processing. That is
also why the per-entry frontier cache is sound: a parameter tuple processed
once never needs reprocessing, because quantifier-free truth over old
elements is permanent and case-3 answers are final. Ids are handed out in
order from 0, so every stage is a prefix of final's ids and every V_alpha an
entry saw is a prefix of final's V_alpha: a chain keeps where each stage
ends and an audit keeps |V_alpha|, never the ids themselves. A stage grows
one thawed copy of the previous structure in place, so a case-2 step costs
the same at any |M|. A chain file keeps of each audit only the case-2 and
case-3 records, each an [a, witness] pair (witness null for case 3), and of
the stage ends only the count of ids embed_model added after the last
record. Loading derives the rest of each audit and every stage end from
final and the records: stage 0 is build_m0's, and every later element is a
new id of one record or an embedded one. It does once per schedule entry
what does not depend on the turn: the parse of its formula text, V_alpha of
final, its obligation's frontier key and its turn key.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Iterable, Optional

from .evaluator import diag_key, diagram, evaluate, find_witness, row_witnessed, witnessed
from .formula import (
    Eq,
    Formula,
    LevelOrdinal,
    ScheduleEntry,
    Signature,
    conjoin,
    fin,
    parse,
    parse_level,
    render,
    seeded_schedule,
)
from .structures import ExtensionDelta, FinStructure, apply_delta, canonical_json
from .theory import PLUGINS, TheoryPlugin, WitnessExtension, get_plugin


class InternalFaultError(RuntimeError):
    """The construction caught itself misbehaving (nondeterministic oracle,
    witness that fails its own constraint). Not a user error."""


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class CaseRecord:
    a_tuple: tuple[int, ...]
    witness: Optional[tuple[int, ...]]  # None when unrealizable
    new_ids: tuple[int, ...] = ()  # the witness ids the oracle made

    @property
    def case(self) -> int:  # 2 oracle extension, 3 unrealizable
        return 3 if self.witness is None else 2


@dataclass(frozen=True)
class EntryAudit:
    position: int
    level: LevelOrdinal
    v_size: int  # |V_alpha| at the turn's start: it saw final.v_ids(level)[:v_size]
    skipped: int
    internal: int  # case-1 tuples; case 2 and 3 each leave a record
    records: tuple[CaseRecord, ...]


@dataclass(frozen=True)
class StageAudit:
    stage: int
    entries: tuple[EntryAudit, ...]


@dataclass(frozen=True)
class StageChain:
    """The final structure, whose ids are 0..|M|-1 in the order they were
    made, plus ends[s], the number of ids stage s holds; audits[i] describes
    the work of stage i+1. Stage s is final cut to the ids below ends[s], so
    stage_of(ids) is the first stage holding ids.
    stages[i] replays M_i from the ends: M_0 holds the ids below ends[0] and
    the facts among them, and M_{i+1} adds the ids from ends[i] to ends[i+1]
    and the facts whose stage_of is i+1. The replay is exact because no
    delta adds a fact among old elements only and levels are frozen.
    stages[n] is final itself."""

    plugin_name: str
    schedule: tuple[ScheduleEntry, ...]
    final: FinStructure
    ends: tuple[int, ...]
    audits: tuple[StageAudit, ...]

    @property
    def n_stages(self) -> int:
        return len(self.audits)

    def stage_of(self, ids: Iterable[int]) -> int:
        """The first stage holding every id of ids, 0 for none."""
        return bisect_right(self.ends, max(ids, default=-1))

    @cached_property
    def stages(self) -> tuple[FinStructure, ...]:
        M, ends = self.final, self.ends
        facts: list[list] = [[] for _ in ends]
        for rel in M.signature.names():
            for t in M.facts(rel):
                facts[self.stage_of(t)].append((rel, t))
        stages, M_i = [], FinStructure(M.signature, (), ())
        for lo, hi, new in zip((0, *ends), ends[:-1], facts):
            elements = tuple((e, M.level_of(e)) for e in M.universe[lo:hi])
            M_i = apply_delta(M_i, ExtensionDelta(elements, tuple(new)))
            stages.append(M_i)
        return (*stages, M)


@cache
def build_m0(plugin: TheoryPlugin) -> FinStructure:
    """One element at level fin0 carrying exactly the facts forced by the
    universal axioms: the intersection of all single-element fact sets that
    satisfy them. Errors out if no fact set does. Memoised per plugin: the
    structure is frozen, and every build, write and load asks for it."""
    slots = []
    for rel, ar in plugin.signature.relations:
        slots.append((rel, (0,) * ar))
    passing = []
    for bits in itertools.product((False, True), repeat=len(slots)):
        facts = tuple(s for s, b in zip(slots, bits) if b)
        M = FinStructure(plugin.signature, ((0, fin(0)),), facts)
        if not plugin.validate_t_forall(M):
            passing.append(set(facts))
    if not passing:
        raise ConstructionError(f"theory {plugin.name} admits no one-element structure")
    forced = set.intersection(*passing)
    M0 = FinStructure(plugin.signature, ((0, fin(0)),), tuple(sorted(forced)))
    if plugin.validate_t_forall(M0):
        raise ConstructionError(f"theory {plugin.name} has no forced one-element structure")
    return M0


def build_stage(
    plugin: TheoryPlugin,
    prev: FinStructure,
    entries: tuple[ScheduleEntry, ...],
    stage: int,
    frontier: dict,
    memo: Optional[dict] = None,
) -> tuple[FinStructure, StageAudit]:
    """Process the given schedule entries in turn order against prev.
    frontier maps an entry key to |V_alpha| at its previous turn; it is
    updated in place. Returns the new structure and the stage audit. prev
    is not changed: the stage grows one thawed copy of it in place, one
    delta at a time, and freezes it at the end. A turn with nothing new
    writes its audit at once; any other asks case 1 of the row rule and
    the witness test, both made again after each case-2 step changes M.

    memo (a fresh dict when None) holds the oracle answers by (entry key,
    diag_key of a-bar, the order of a-bar's ids), as case 2 in the module
    docstring says; it is updated in place."""
    M = prev._thawed()
    memo = {} if memo is None else memo
    audits = []
    for entry in sorted(entries, key=_turn):
        key = entry.key()
        alpha = entry.level
        succ = alpha.successor()
        seen = frontier.get(key)
        k = len(entry.x_vars)
        skipped = _skipped(seen, k)
        if seen == len(M.v_ids(alpha)):
            # nothing new since its last turn, which processed every tuple
            audits.append(EntryAudit(entry.position, alpha, seen, skipped, 0, ()))
            continue
        v_now = tuple(M.v_ids(alpha))
        todo = itertools.product(v_now, repeat=k) if seen is None else _touching(v_now, seen, k)
        records = []
        query = (entry.formula, entry.x_vars, entry.y_vars, succ)
        has_witness, settles = witnessed(M, *query), row_witnessed(M, *query)
        row, settled = None, False
        # with min_new=1 and at most one slot, the oracle never reads its pool
        memoised = plugin.answer_fixed_by_diagram_and_order and len(entry.y_vars) <= 1
        for a_bar in todo:
            if settles is not None and a_bar[0] != row:
                row, settled = a_bar[0], settles(a_bar[0])
            if settled or has_witness(a_bar):
                continue
            ids = a_bar + tuple(range(M.max_id + 1, M.max_id + 1 + len(entry.y_vars)))
            slot = (key, diag_key(M, a_bar), _id_order(a_bar)) if memoised else None
            if memoised and slot in memo:
                ext = _instantiate(memo[slot], ids, succ)
            else:
                # the test has just searched V_{alpha+1}, the oracle's old ids
                args = (M, entry.formula, a_bar, succ)
                kw = dict(
                    x_vars=entry.x_vars, y_vars=entry.y_vars, allowed_old=M.v_ids(succ), min_new=1
                )
                ext = plugin.extends_with_witness(*args, **kw)
                if plugin.extends_with_witness(*args, **kw) != ext:
                    raise InternalFaultError(
                        f"oracle nondeterminism on {render(entry.formula)} at {a_bar}"
                    )
                if memoised:
                    memo[slot] = _template(ext, ids)
            if ext is None:
                records.append(CaseRecord(a_bar, None))
                continue
            M._extend(ext.delta)
            has_witness, settles = witnessed(M, *query), row_witnessed(M, *query)
            wenv = dict(zip(entry.x_vars + entry.y_vars, a_bar + ext.witness))
            if not evaluate(M, entry.formula, wenv):
                raise InternalFaultError(
                    f"oracle witness fails {render(entry.formula)} at {a_bar}"
                )
            records.append(
                CaseRecord(a_bar, ext.witness, tuple(e for e, _ in ext.delta.new_elements))
            )
        v_size = frontier[key] = len(v_now)
        internal = _internal(v_size, k, skipped, records)
        audits.append(EntryAudit(entry.position, alpha, v_size, skipped, internal, tuple(records)))
    return M._freeze(), StageAudit(stage, tuple(audits))


def _id_order(a_bar: tuple[int, ...]) -> tuple[int, ...]:
    """The positions of a_bar by ascending id, ties by position."""
    return tuple(sorted(range(len(a_bar)), key=a_bar.__getitem__))


def _template(ext: Optional[WitnessExtension], ids: tuple[int, ...]) -> Optional[tuple]:
    """ext with each id replaced by its index in ids, the parameters and
    then the fresh ids from max_id + 1: (new elements, facts, witness), or
    None for a refusal."""
    if ext is None:
        return None
    at = {e: i for i, e in enumerate(ids)}
    try:
        return (
            tuple(at[e] for e, _ in ext.delta.new_elements),
            tuple((rel, tuple(at[t] for t in terms)) for rel, terms in ext.delta.new_facts),
            tuple(at[e] for e in ext.witness),
        )
    except KeyError as e:
        raise InternalFaultError(f"oracle answer names id {e} outside the parameters") from None


def _instantiate(
    template: Optional[tuple], ids: tuple[int, ...], level: LevelOrdinal
) -> Optional[WitnessExtension]:
    """The inverse of _template: the answer over ids, new elements at level."""
    if template is None:
        return None
    new, facts, witness = template
    return WitnessExtension(
        ExtensionDelta(
            tuple((ids[i], level) for i in new),
            tuple((rel, tuple(ids[i] for i in terms)) for rel, terms in facts),
        ),
        tuple(ids[i] for i in witness),
    )


def _turn(entry: ScheduleEntry) -> tuple[LevelOrdinal, int]:
    """A stage processes its entries by level, then by schedule position."""
    return entry.level, entry.position


def _skipped(seen: Optional[int], k: int) -> int:
    """The skip rule: the k-tuples over the V_alpha of size seen that an
    entry's previous turn saw (None before its first turn) were processed
    then. New ids come last, so that V_alpha is a prefix of today's."""
    return 0 if seen is None else seen**k


def _internal(v_size: int, k: int, skipped: int, records: list) -> int:
    """Case-1 tuples: the k-tuples over V_alpha not skipped or recorded."""
    return v_size**k - skipped - len(records)


def _touching(ids: tuple[int, ...], p: int, k: int) -> Iterable[tuple[int, ...]]:
    """The k-tuples over ids with a component outside the prefix ids[:p], in
    the lexicographic order of itertools.product(ids, repeat=k), without
    stepping through the tuples over the prefix only."""
    fresh = [(e,) for e in ids[p:]]

    def rec(k: int) -> Iterable[tuple[int, ...]]:
        if k == 1:
            return fresh
        return (
            (e,) + tail
            for i, e in enumerate(ids)
            for tail in (rec(k - 1) if i < p else itertools.product(ids, repeat=k - 1))
        )

    return rec(k) if k else ()


def build_chain(
    plugin: TheoryPlugin,
    n_stages: int,
    *,
    schedule: Optional[tuple[ScheduleEntry, ...]] = None,
) -> StageChain:
    """M_0 through M_n under the plugin's seeded schedule (or a caller-built
    one). Deterministic: equal inputs give equal chains, byte for byte."""
    if n_stages < 0:
        raise ConstructionError("n_stages must be >= 0")
    if schedule is None:
        schedule = tuple(seeded_schedule(plugin.signature, plugin.seeds(), n_stages))
    if len(schedule) < n_stages:
        raise ConstructionError(f"schedule has {len(schedule)} entries, need {n_stages}")
    M = build_m0(plugin)
    ends, audits = [M.size()], []
    frontier: dict = {}
    memo: dict = {}
    for n in range(1, n_stages + 1):
        M, audit = build_stage(plugin, M, schedule[:n], n, frontier, memo)
        # the oracle hands out ids past the largest, so stage n's come last
        ends.append(M.size())
        audits.append(audit)
    return StageChain(plugin.name, tuple(schedule), M, tuple(ends), tuple(audits))


# ---------------------------------------------------------------------------
# satisfaction checks


def strong_satisfaction_failures(
    plugin: TheoryPlugin, M: FinStructure, entry: ScheduleEntry
) -> list[tuple[int, ...]]:
    """Parameter tuples in V_level witnessing a strong-satisfaction failure:
    the theory can realize the constraint somewhere past M, yet no witness
    lies inside V_{level+1}."""
    succ = entry.level.successor()
    bad = []
    for a_bar in itertools.product(M.v_ids(entry.level), repeat=len(entry.x_vars)):
        env = dict(zip(entry.x_vars, a_bar))
        if find_witness(M, entry.formula, env, entry.y_vars, succ) is not None:
            continue
        if (
            plugin.extends_with_witness(
                M, entry.formula, a_bar, succ, x_vars=entry.x_vars, y_vars=entry.y_vars
            )
            is not None
        ):
            bad.append(a_bar)
    return bad


def strongly_satisfies(plugin: TheoryPlugin, M: FinStructure, entry: ScheduleEntry) -> bool:
    return not strong_satisfaction_failures(plugin, M, entry)


@dataclass(frozen=True)
class AxiomLevelReport:
    checked: tuple[tuple[str, LevelOrdinal], ...]
    failures: tuple[tuple[str, LevelOrdinal, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def processed_axiom_levels(
    plugin: TheoryPlugin, chain: StageChain
) -> list[tuple[str, LevelOrdinal]]:
    """(axiom name, level) pairs the chain has processed, i.e. schedule
    entries among the first n whose formula matches a plugin AE axiom."""
    by_matrix = {
        (render(ax.formula), ax.x_vars, ax.y_vars): ax.name for ax in plugin.ae_axioms
    }
    seen = []
    for entry in chain.schedule[: chain.n_stages]:
        name = by_matrix.get((render(entry.formula), entry.x_vars, entry.y_vars))
        if name is not None and (name, entry.level) not in seen:
            seen.append((name, entry.level))
    return seen


def verify_axioms_on_levels(
    plugin: TheoryPlugin,
    M: FinStructure,
    pairs: list[tuple[str, LevelOrdinal]],
) -> AxiomLevelReport:
    """Relativized axiom check: for each (axiom, alpha), every a-bar over
    V_alpha must have an internal witness inside V_{alpha+1}."""
    by_name = {ax.name: ax for ax in plugin.ae_axioms}
    failures = []
    for name, alpha in pairs:
        ax = by_name[name]
        succ = alpha.successor()
        for a_bar in itertools.product(M.v_ids(alpha), repeat=len(ax.x_vars)):
            env = dict(zip(ax.x_vars, a_bar))
            if find_witness(M, ax.formula, env, ax.y_vars, succ) is None:
                failures.append((name, alpha, a_bar))
    return AxiomLevelReport(tuple(pairs), tuple(failures))


def check_level_freeze(chain: StageChain) -> list[tuple[int, int, str, str]]:
    """Elements a case-2 record created that the chain does not hold at the
    record's successor level and stage: (stage, element, expected, actual),
    each side rendered as "<level> at stage <s>". Empty for a chain as
    build_chain makes it, since a new element enters at alpha+1 and levels
    never move afterwards."""
    out = []
    M, ends = chain.final, chain.ends
    for audit in chain.audits:
        for ea in audit.entries:
            if not ea.records:
                continue
            expected = (ea.level.successor(), audit.stage)
            for rec in ea.records:
                for e in rec.new_ids:
                    actual = (M.level_of(e), bisect_right(ends, e)) if e in M else None
                    if actual != expected:
                        shown = _at(*actual) if actual else "absent"
                        out.append((audit.stage, e, _at(*expected), shown))
    return out


def _at(level: LevelOrdinal, stage: int) -> str:
    return f"{level.render()} at stage {stage}"


# ---------------------------------------------------------------------------
# embeddings


def embed_model(
    plugin: TheoryPlugin, A: FinStructure, chain: StageChain
) -> Optional[tuple[dict[int, int], StageChain]]:
    """Embed the finite structure A into the chain's final stage, the image
    of A's i-th element landing inside V_{fin(i+1)}. Existing elements are
    preferred; otherwise the final stage is extended by one oracle witness
    carrying the full atomic diagram, its new elements held by the last
    stage. Returns (mapping, chain with the final stage possibly extended),
    or None when the theory refuses some step."""
    if A.signature != plugin.signature:
        raise ConstructionError("signature mismatch")
    M = chain.final
    mapping: dict[int, int] = {}
    sources = list(A.universe)
    for i, a in enumerate(sources):
        bound = fin(i + 1)
        x_vars = tuple(f"p{j}" for j in range(i))
        prefix = sources[:i]
        lits = diagram(A, tuple(sources[: i + 1]), (*x_vars, "y0"), i)
        phi = conjoin(lits) if lits else Eq("y0", "y0")
        ext = plugin.extends_with_witness(
            M,
            phi,
            tuple(mapping[p] for p in prefix),
            bound,
            x_vars=x_vars,
            y_vars=("y0",),
            allowed_old=M.v_ids(bound),
        )
        if ext is None:
            return None
        if not ext.delta.is_empty():
            M = apply_delta(M, ext.delta)
        img = ext.witness[0]
        mapping[a] = img
        got = diag_key(M, tuple(mapping[s] for s in sources[: i + 1]))
        want = diag_key(A, tuple(sources[: i + 1]))
        if got != want:
            raise InternalFaultError("embedding image has the wrong atomic diagram")
    return mapping, replace(chain, final=M, ends=(*chain.ends[:-1], M.size()))


# ---------------------------------------------------------------------------
# serialization


CHAIN_FORMAT = 5
_CHAIN_KEYS = frozenset(("format", "plugin", "schedule", "final", "records", "embedded"))


def chain_to_doc(chain: StageChain) -> dict:
    """The chain file's document. Of the stage ends it keeps only embedded,
    the number of ids past M0's and the records' new ids: those embed_model
    added after the last record. The loader derives the rest."""
    made = build_m0(get_plugin(chain.plugin_name)).size() + sum(
        len(r.new_ids) for a in chain.audits for ea in a.entries for r in ea.records
    )
    return {
        "format": CHAIN_FORMAT,
        "plugin": chain.plugin_name,
        "schedule": [
            {
                "position": e.position,
                "formula": render(e.formula),
                "x_vars": list(e.x_vars),
                "y_vars": list(e.y_vars),
                "level": e.level.render(),
            }
            for e in chain.schedule
        ],
        "final": chain.final.to_doc(),
        "records": [
            [
                [[list(r.a_tuple), None if r.witness is None else list(r.witness)]
                 for r in ea.records]
                for ea in a.entries
            ]
            for a in chain.audits
        ],
        "embedded": chain.final.size() - made,
    }


def serialize_chain(chain: StageChain) -> str:
    return canonical_json(chain_to_doc(chain))


def chain_from_doc(doc: dict) -> StageChain:
    """Inverse of chain_to_doc, whose records[i] holds stage i+1's case-2
    and case-3 records as [a, witness] pairs, one list per entry in turn
    order; the schedule gives each entry's position and level. Ids are
    handed out as max_id + 1, and each fresh id is a witness component, so
    a record's new ids are its witness ids past a watermark: the largest id
    that M0 (build_m0, as the build makes stage 0) or an earlier record
    created. An entry saw final cut down to the ids up to the watermark at
    its turn's start. Its v_size is |V_alpha| of that cut, skipped follows
    by the skip rule, and internal is what the skips and records leave of
    v_size^k.

    The stage ends follow from the same walk: stage s ends past the
    watermark at its close, and the last stage also holds the embedded ids,
    which embed_model adds past the last record.

    What does not depend on the turn is done once per entry: its formula
    (one parse per distinct text), V_alpha of final, an int naming its
    obligation for the frontier, and its turn key _turn, inserted into the
    turn order at the first stage that holds the entry. The frontier maps
    an obligation to its previous turn's v_size, and the turns of an entry
    that see that v_size again and have no records share one audit.

    Rejected: a missing or extra key; an embedded count that is not a
    nonnegative int; final ids that are not 0 to |M| - 1, counting M0's,
    the records' new ids and the embedded ones; a stage 0 that is not M0,
    in a level of M0's ids or a tuple over them; a record whose parameter
    tuple its entry did not process, that is not a k-tuple over that
    V_alpha with a component past the previous turn's prefix, or that breaks
    the lexicographic order of the entry's records; a witness that is not
    one id per y variable; a record whose new ids skip an id or that
    check_level_freeze rejects; and an unknown plugin, or a final structure
    over another signature than the plugin's."""
    if not isinstance(doc, dict):
        raise ConstructionError("a chain must be a JSON object")
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != CHAIN_FORMAT:
        raise ConstructionError(f"need chain format {CHAIN_FORMAT}, got {fmt!r}")
    missing, extra = _CHAIN_KEYS - doc.keys(), doc.keys() - _CHAIN_KEYS
    if missing or extra:
        raise ConstructionError(f"missing keys {sorted(missing)}, extra keys {sorted(extra)}")
    name = doc["plugin"]
    plugin = PLUGINS.get(name) if isinstance(name, str) else None
    if plugin is None:
        raise ConstructionError(f"unknown plugin {name!r}")
    final = FinStructure.from_doc(doc["final"])
    if final.signature != plugin.signature:
        raise ConstructionError(f"the final signature is not {plugin.name}'s")
    stages, embedded = doc["records"], doc["embedded"]
    if not isinstance(stages, list):
        raise ConstructionError("records must be a list with one list per stage")
    if type(embedded) is not int or embedded < 0:
        raise ConstructionError(f"embedded must be a nonnegative integer, got {embedded!r}")
    n = len(stages)
    schedule, keys = _schedule_from_doc(doc["schedule"], final.signature)
    if len(schedule) < n:
        raise ConstructionError(f"{n} stages need {n} schedule entries, got {len(schedule)}")
    vids = [final.v_ids(e.level) for e in schedule[:n]]
    inside = {lv: frozenset(final.v_ids(lv)) for lv in {e.level for e in schedule[:n]}}
    order: list[tuple[tuple[LevelOrdinal, int], int]] = []  # (turn key, index), sorted
    frontier: dict[int, int] = {}
    idle: list[Optional[EntryAudit]] = [None] * n  # per entry, shared by its idle turns
    M0 = build_m0(plugin)
    watermark, ends = M0.max_id, [M0.size()]
    audits = []
    for stage, lists in enumerate(stages, 1):
        if not isinstance(lists, list) or len(lists) != stage:
            raise ConstructionError(f"stage {stage} needs a list of {stage} record lists")
        insort(order, (_turn(schedule[stage - 1]), stage - 1))
        entries = []
        for (_, i), recs in zip(order, lists):
            if not isinstance(recs, list):
                raise ConstructionError(f"stage {stage} has a record list that is not a list")
            entry, top = schedule[i], watermark
            k, p = len(entry.x_vars), bisect_right(vids[i], top)
            seen = frontier.get(keys[i])
            if seen == p and not recs:
                # the cut its obligation saw last turn: all skipped, nothing new
                if idle[i] is None or idle[i].v_size != p:
                    idle[i] = EntryAudit(entry.position, entry.level, p, p**k, 0, ())
                entries.append(idle[i])
                continue
            skipped, floor, records = _skipped(seen, k), (vids[i][seen - 1] if seen else -1), []
            for r in recs:
                rec = _record_from_doc(r, final, watermark, len(entry.y_vars))
                a = rec.a_tuple
                if not (
                    len(a) == k
                    and all(e <= top and e in inside[entry.level] for e in a)
                    and (seen is None or max(a, default=-1) > floor)
                    and (not records or records[-1].a_tuple < a)
                ):
                    raise ConstructionError(
                        f"stage {stage}, position {entry.position}: record {list(a)} "
                        "is not the next tuple the entry processed"
                    )
                records.append(rec)
                watermark += len(rec.new_ids)
            frontier[keys[i]] = p
            # distinct processed tuples: never more than the tuples left
            internal = _internal(p, k, skipped, records)
            entries.append(
                EntryAudit(entry.position, entry.level, p, skipped, internal, tuple(records))
            )
        ends.append(watermark + 1)
        audits.append(StageAudit(stage, tuple(entries)))
    ends[-1] += embedded
    # ids are distinct, ascending and nonnegative: 0..|M|-1 when the largest is |M| - 1
    if final.size() != ends[-1] or final.max_id + 1 != ends[-1]:
        raise ConstructionError(
            f"final's ids are not M0's, the records' new ones and {embedded} embedded ones"
        )
    ids = M0.universe
    if any(final.level_of(e) != M0.level_of(e) for e in ids) or any(
        final.has_fact(rel, t) != M0.has_fact(rel, t)
        for rel, ar in M0.signature.relations
        for t in itertools.product(ids, repeat=ar)
    ):
        raise ConstructionError(f"stage 0 is not {name}'s M0")
    chain = StageChain(name, schedule, final, tuple(ends), tuple(audits))
    moved = check_level_freeze(chain)
    if moved:
        stage, e, expected, actual = moved[0]
        raise ConstructionError(
            f"stage {stage}: new element {e} should be {expected}, found {actual}"
        )
    return chain


def _schedule_from_doc(
    docs: list, sig: Signature
) -> tuple[tuple[ScheduleEntry, ...], list[int]]:
    """The schedule entries, each with text formula and level, lists of text
    for the variables and an integer position, and for each entry an int
    that names its obligation: equal ints for equal entry.key(). Each
    distinct formula text is parsed and rendered once, and its entries share
    the one Formula; a text that does not parse is rejected at its first
    entry."""
    parsed: dict[str, tuple[Formula, str]] = {}
    obligations: dict[tuple, int] = {}
    schedule, keys = [], []
    for d in docs:
        text, xs, ys, level, pos = (d[f] for f in ("formula", "x_vars", "y_vars", "level", "position"))
        if not (isinstance(text, str) and isinstance(level, str) and type(pos) is int):
            raise ConstructionError("schedule entries need text formula and level, integer position")
        if not all(isinstance(v, list) and all(isinstance(s, str) for s in v) for v in (xs, ys)):
            raise ConstructionError("schedule x_vars and y_vars must be lists of text")
        if text not in parsed:
            f = parse(text, sig)
            parsed[text] = (f, render(f))
        f, shown = parsed[text]
        entry = ScheduleEntry(f, tuple(xs), tuple(ys), parse_level(level), pos)
        key = (shown, entry.x_vars, entry.y_vars, entry.level)
        keys.append(obligations.setdefault(key, len(obligations)))
        schedule.append(entry)
    return tuple(schedule), keys


def _record_from_doc(r: list, final: FinStructure, watermark: int, n_y: int) -> CaseRecord:
    """An [a, witness] pair of lists of ids in final, witness null for case
    3 or one id for each of the entry's n_y witness variables. Its new ids,
    the witness ids past the watermark, must follow it."""
    a, witness = r if isinstance(r, list) and len(r) == 2 else (None, None)
    if not (isinstance(a, list) and (witness is None or isinstance(witness, list))):
        raise ConstructionError(f"a record must be an [a, witness] pair, got {r!r}")
    if witness is not None and len(witness) != n_y:
        raise ConstructionError(f"witness {witness!r} needs {n_y} ids, one per y variable")
    for e in a + (witness or []):
        if type(e) is not int or e not in final:
            raise ConstructionError(f"record id {e!r} is not in the final structure")
    new_ids = tuple(sorted({e for e in witness or () if e > watermark}))
    if new_ids != tuple(range(watermark + 1, watermark + 1 + len(new_ids))):
        raise ConstructionError(f"new ids {list(new_ids)} do not follow id {watermark}")
    return CaseRecord(tuple(a), None if witness is None else tuple(witness), new_ids)


def load_chain(text: str) -> StageChain:
    return chain_from_doc(json.loads(text))
