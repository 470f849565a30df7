"""Slow reference for the chain loader: chain_from_doc as it was before the
per-entry work left the stage loop.

It parses every schedule text, re-sorts the first i entries by
(LevelOrdinal, position) at every stage, and reads V_alpha of final and the
entry's rendered key at every turn, and its frontier keeps the V_alpha
tuples themselves. It stamps each made id's stage in a dict as the records
make it and counts the stage ends from the stamps, where the loader appends
one end per stage; it checks the final ids against range(|M|) and stage 0
against the whole fact set of final, where the loader asks the size, the
largest id and the tuples over M0's ids. The checks, their order and their
messages are the loader's own, so on any document both loaders must return
equal chains or raise the same exception with the same message.
"""

from bisect import bisect_right

from levelsat.construction import (
    CHAIN_FORMAT,
    ConstructionError,
    EntryAudit,
    StageAudit,
    StageChain,
    _record_from_doc,
    build_m0,
    check_level_freeze,
)
from levelsat.formula import ScheduleEntry, parse, parse_level
from levelsat.structures import FinStructure
from levelsat.theory import PLUGINS


def _turn(entry):
    return entry.level, entry.position


def reference_chain_from_doc(doc):
    if not isinstance(doc, dict):
        raise ConstructionError("a chain must be a JSON object")
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != CHAIN_FORMAT:
        raise ConstructionError(f"need chain format {CHAIN_FORMAT}, got {fmt!r}")
    wanted = {"format", "plugin", "schedule", "final", "records", "embedded"}
    missing, extra = wanted - doc.keys(), doc.keys() - wanted
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
    schedule = tuple(_entry_from_doc(d, final.signature) for d in doc["schedule"])
    if len(schedule) < n:
        raise ConstructionError(f"{n} stages need {n} schedule entries, got {len(schedule)}")
    keys = [e.key() for e in schedule]
    frontier = {}
    M0 = build_m0(plugin)
    stamp = dict.fromkeys(M0.universe, 0)  # each made id's stage
    watermark = M0.max_id
    audits = []
    for stage, lists in enumerate(stages, 1):
        if not isinstance(lists, list) or len(lists) != stage:
            raise ConstructionError(f"stage {stage} needs a list of {stage} record lists")
        entries = []
        for i, recs in zip(sorted(range(stage), key=lambda j: _turn(schedule[j])), lists):
            if not isinstance(recs, list):
                raise ConstructionError(f"stage {stage} has a record list that is not a list")
            entry = schedule[i]
            k, vids, top = len(entry.x_vars), final.v_ids(entry.level), watermark
            v_before = vids[: bisect_right(vids, top)]
            seen, records = frontier.get(keys[i]), []
            skipped = 0 if seen is None else len(seen) ** k
            floor = seen[-1] if seen else -1
            for r in recs:
                rec = _record_from_doc(r, final, watermark, len(entry.y_vars))
                a = rec.a_tuple
                if not (
                    len(a) == k
                    and all(e <= top and final.level_of(e) <= entry.level for e in a)
                    and (seen is None or max(a, default=-1) > floor)
                    and (not records or records[-1].a_tuple < a)
                ):
                    raise ConstructionError(
                        f"stage {stage}, position {entry.position}: record {list(a)} "
                        "is not the next tuple the entry processed"
                    )
                records.append(rec)
                watermark += len(rec.new_ids)
                stamp.update(dict.fromkeys(rec.new_ids, stage))
            frontier[keys[i]] = v_before
            internal = len(v_before) ** k - skipped - len(records)
            entries.append(
                EntryAudit(entry.position, entry.level, len(v_before), skipped, internal, tuple(records))
            )
        audits.append(StageAudit(stage, tuple(entries)))
    made = tuple(sorted(stamp))
    if (
        final.universe[: len(made)] != made
        or final.size() - len(made) != embedded
        or final.universe != tuple(range(final.size()))
    ):
        raise ConstructionError(
            f"final's ids are not M0's, the records' new ones and {embedded} embedded ones"
        )
    old = set(M0.universe)
    stage0 = FinStructure(
        final.signature,
        tuple((e, final.level_of(e)) for e in M0.universe),
        tuple((rel, t) for rel in final.signature.names() for t in final.facts(rel) if set(t) <= old),
    )
    if stage0 != M0:
        raise ConstructionError(f"stage 0 is not {name}'s M0")
    stamps = [stamp.get(e, n) for e in final.universe]  # embedded: the last stage
    ends = tuple(sum(1 for st in stamps if st <= s) for s in range(n + 1))
    chain = StageChain(name, schedule, final, ends, tuple(audits))
    moved = check_level_freeze(chain)
    if moved:
        stage, e, expected, actual = moved[0]
        raise ConstructionError(
            f"stage {stage}: new element {e} should be {expected}, found {actual}"
        )
    return chain


def _entry_from_doc(d, sig):
    text, xs, ys, level, pos = (d[f] for f in ("formula", "x_vars", "y_vars", "level", "position"))
    if not (isinstance(text, str) and isinstance(level, str) and type(pos) is int):
        raise ConstructionError("schedule entries need text formula and level, integer position")
    if not all(isinstance(v, list) and all(isinstance(s, str) for s in v) for v in (xs, ys)):
        raise ConstructionError("schedule x_vars and y_vars must be lists of text")
    return ScheduleEntry(parse(text, sig), tuple(xs), tuple(ys), parse_level(level), pos)
