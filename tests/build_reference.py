"""Slow reference for the construction's case-1 test: the per-tuple build.

build_stage as it was before case 1 went through one witness test per entry
turn: one find_witness search per parameter tuple, on the structure as it
stands at that tuple. The turn order, the skip rule, the oracle calls and
the records are the construction's own, so a chain built here must
serialize to the same bytes as build_chain's. Each turn's V_alpha is read
from the structure as it stands, never from final, and a caller can collect
it through views.
"""

import itertools

from levelsat.construction import (
    CaseRecord,
    EntryAudit,
    StageAudit,
    StageChain,
    _touching,
    _turn,
    build_m0,
)
from levelsat.evaluator import find_witness
from levelsat.formula import seeded_schedule


def reference_stage(plugin, prev, entries, stage, frontier, views=None):
    M = prev._thawed()
    audits = []
    for entry in sorted(entries, key=_turn):
        succ, k = entry.level.successor(), len(entry.x_vars)
        v_now = tuple(M.v_ids(entry.level))
        seen = frontier.get(entry.key())
        todo = itertools.product(v_now, repeat=k) if seen is None else _touching(v_now, seen, k)
        internal, records = 0, []
        for a_bar in todo:
            env = dict(zip(entry.x_vars, a_bar))
            if find_witness(M, entry.formula, env, entry.y_vars, succ) is not None:
                internal += 1
                continue
            ext = plugin.extends_with_witness(
                M, entry.formula, a_bar, succ, x_vars=entry.x_vars, y_vars=entry.y_vars,
                allowed_old=M.v_ids(succ), min_new=1,
            )
            if ext is None:
                records.append(CaseRecord(a_bar, None))
                continue
            M._extend(ext.delta)
            new_ids = tuple(e for e, _ in ext.delta.new_elements)
            records.append(CaseRecord(a_bar, ext.witness, new_ids))
        frontier[entry.key()] = len(v_now)
        if views is not None:
            views.append((stage, entry.position, v_now))
        # the tuples over the V_alpha of the previous turn, processed then
        skipped = 0 if seen is None else seen**k
        audits.append(
            EntryAudit(entry.position, entry.level, len(v_now), skipped, internal, tuple(records))
        )
    return M._freeze(), StageAudit(stage, tuple(audits))


def reference_chain(plugin, n_stages, schedule=None, views=None):
    """build_chain, per tuple, under the plugin's seeded schedule or the
    one given. views, when given, gets (stage, position, V_alpha) for each
    turn."""
    if schedule is None:
        schedule = tuple(seeded_schedule(plugin.signature, plugin.seeds(), n_stages))
    M = build_m0(plugin)
    ends, audits, frontier = [M.size()], [], {}
    for n in range(1, n_stages + 1):
        M, audit = reference_stage(plugin, M, schedule[:n], n, frontier, views)
        ends.append(M.size())
        audits.append(audit)
    return StageChain(plugin.name, schedule, M, tuple(ends), tuple(audits))
