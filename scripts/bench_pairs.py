"""Paired benchmark runs of two checkouts, reported by the paired-runs rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

PARENT and CHANGE are two source checkouts, best made with `git archive`
into fresh directories: a `__pycache__` left in one of them would let its
setup probe read cached bytecode. Each pair runs
`python3 levelbench/run.py --workload W --seed K --seconds S --trace 0` once
in each checkout, one after the other, in a fresh process with
PYTHONDONTWRITEBYTECODE=1; the side that runs first alternates from pair to
pair, the parent first in pair 1. Only the last line of each run's standard
output is read, the JSON result. Nothing under levelbench/ is changed.

For each end-to-end metric that BENCHMARK.json names, the script prints each
side's median and quartiles, the change's median against the parent's, the
parent's interquartile range as a share of its median, and the pairs the
change won (ties count for neither side). A gain holds when the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range; a loss is the same
rule read the other way. The last line is one JSON object with every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its last output line, parsed, with
    each metric's {"value", "unit"} object read down to its value."""
    argv = [sys.executable, "levelbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no result (exit {proc.returncode})\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower: bool) -> tuple[int, str]:
    """(pairs the change won, "gain", "loss" or "-")."""
    sign = -1 if lower else 1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - med)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1:
        return won, "gain"
    if 10 * lost >= 9 * len(parent) and -gap > q3 - q1:
        return won, "loss"
    return won, "-"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = []
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            out = run(sides[side], args.workload, args.seed, args.seconds)
            rows.append({"pair": pair, "side": side, "ran_first": order[0], **out})
            print(f"pair {pair} {side}: correct={out['correct']} failed={out['failed']}"
                  f"/{out['attempted']} " + " ".join(
                      f"{m['name']}={out['metrics'].get(m['name'])}" for m in metrics),
                  file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<14}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'change':>9}{'IQR':>8}{'won':>6}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = {s: [r["metrics"][name] for r in rows if r["side"] == s] for s in sides}
        (p1, pm, p3), (c1, cm, c3) = quartiles(got["parent"]), quartiles(got["change"])
        won, says = verdict(got["parent"], got["change"], lower)
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        iqr = f"{(p3 - p1) / pm:.1%}" if pm else "n/a"
        print(f"{name:<14}{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>34}"
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>34}{rel:>9}{iqr:>8}"
              f"{f'{won}/{args.pairs}':>6}  {says}")
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    print(f"runs not correct or with failed operations: {len(bad)} of {len(rows)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "rows": rows}))


if __name__ == "__main__":
    main()
