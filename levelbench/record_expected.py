"""Record the expected answers of every workload into expected.json.

    python3 levelbench/record_expected.py

Run from the root of a source checkout whose outputs are trusted; every
later benchmark run is checked against what this writes. Per workload it
records the build's final |M|, level histogram and per-stage case-1/2/3
counts, the element that "first_at_level fin1" resolves to, and the dim
verdicts for every element that exists before the comparison window opens
(the anchors a seed can pick). It also confirms, on the fin1 anchor, the
divide outcomes the theory fixes; those are hard-coded in workloads.py
rather than recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import (
    ANCHOR_FIN1,
    EXPECTED_FILE,
    WORKLOADS,
    Workload,
    build_answers,
    check_command,
    command_argv,
    dim_answers,
    write_config,
)


def record(w: Workload, run_dir: Path) -> dict:
    from levelsat.cli import resolve_anchor
    from levelsat.construction import load_chain

    config, work = run_dir / "config.yaml", run_dir / "work"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_config(w, ANCHOR_FIN1, config)
    p = run.run_pass(w, config, work, 0, None, None)
    problems = [m for runs in p.problems.values() for msgs in runs for m in msgs]
    if problems:
        raise RuntimeError(f"{w.name}: {problems}")
    chain = load_chain((work / f"{w.plugin}.chain.json").read_text())
    rec = build_answers(w, p.outputs["build"][0], work)
    if "divide" in w.commands:
        problems = check_command(w, "divide", p.outputs["divide"][0], work, rec, None)
        if problems:
            raise RuntimeError(f"{w.name} divide: {problems}")
    rec["fin1_anchor"] = resolve_anchor(chain.final, ANCHOR_FIN1)
    rec["anchors"] = {}
    for anchor in chain.stages[w.window_start - 1].universe:
        write_config(w, anchor, config)
        rc, out, _, err = run.run_command(command_argv(w, "dim", config, work, 0))
        if rc != 0:
            raise RuntimeError(f"{w.name} dim with anchor {anchor}: {err or out}")
        rec["anchors"][str(anchor)] = dim_answers(work)
    return rec


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for w in WORKLOADS.values():
        run_dir = run.OUT / f"record-{w.name}"
        try:
            table[w.name] = record(w, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print(f"{w.name}: |M| {table[w.name]['final_size']}, {len(table[w.name]['anchors'])} anchors")
    EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
