"""Slow reference for the chain loader: chain_from_doc as it was before the
per-entry work left the stage loop.

It parses every schedule text, re-sorts the first i entries by
(LevelOrdinal, position) at every stage, and reads V_alpha of final and the
entry's rendered key at every turn. The checks, their order and their
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
    _skipped,
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
    missing = {"plugin", "schedule", "final", "born", "records"} - doc.keys()
    if missing:
        raise ConstructionError(f"missing keys {sorted(missing)}")
    name = doc["plugin"]
    plugin = PLUGINS.get(name) if isinstance(name, str) else None
    if plugin is None:
        raise ConstructionError(f"unknown plugin {name!r}")
    final = FinStructure.from_doc(doc["final"])
    if final.signature != plugin.signature:
        raise ConstructionError(f"the final signature is not {plugin.name}'s")
    born, stages = doc["born"], doc["records"]
    if not isinstance(stages, list):
        raise ConstructionError("records must be a list with one list per stage")
    n = len(stages)
    if not isinstance(born, list) or len(born) != final.size():
        raise ConstructionError(f"need one birth stage per element, {final.size()} in all")
    if not all(type(b) is int and 0 <= b <= n for b in born):
        raise ConstructionError(f"birth stages must be integers in [0, {n}]")
    if any(b > c for b, c in zip(born, born[1:])):
        raise ConstructionError("birth stages must not decrease in id order")
    schedule = tuple(_entry_from_doc(d, final.signature) for d in doc["schedule"])
    if len(schedule) < n:
        raise ConstructionError(f"{n} stages need {n} schedule entries, got {len(schedule)}")
    keys = [e.key() for e in schedule]
    frontier = {}
    watermark = max((e for e, b in zip(final.universe, born) if b == 0), default=-1)
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
            skipped, floor = _skipped(seen, k), (seen[-1] if seen else -1)
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
            frontier[keys[i]] = v_before
            internal = len(v_before) ** k - skipped - len(records)
            entries.append(
                EntryAudit(entry.position, entry.level, v_before, skipped, internal, tuple(records))
            )
        audits.append(StageAudit(stage, tuple(entries)))
    chain = StageChain(name, schedule, final, tuple(born), tuple(audits))
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
