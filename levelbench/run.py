"""levelsat benchmark: one workload, one fresh process, one closed-loop client.

    python3 levelbench/run.py --workload equiv_chain60 --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; levelsat is imported from src/. The
workload's config is generated into .levelbench/ and the CLI's
`levelsat.cli.main` is called in-process, single-threaded, for `build`, then
`dim`, then `divide`, each command reading the files the previous one wrote.
One such pass is repeated until the next one would overrun --seconds (at
least one pass runs). Every command's output is checked against the
workload's expected answers (expected.json) and against the first pass's
output bytes.

--trace 0 reports the end-to-end metrics; a command's time is its median
over every execution in the run.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py, the traced minus untraced pipeline time as the
tracing overhead, and writes the spans and the per-stage series to
.levelbench/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 without a result when
levelsat cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from tracing import METRICS as LAYER_METRICS
from tracing import Tracer
from workloads import (
    ANCHOR_FIN1,
    WORKLOADS,
    Workload,
    check_command,
    command_argv,
    load_expected,
    pick_anchor,
    write_config,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".levelbench"

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("analyze_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("chain_bytes", "bytes"),
    ("success_rate", "ratio"),
)
SETUP_REPEATS = 15
# shorter commands are repeated within a pass, so that a 0.1 s `dim` gets
# enough samples for its median to ride out second-to-second speed swings
MIN_COMMAND_S = 1.0
# layer self times must add up to a traced pass's time within this share
ACCOUNTING_TOLERANCE = 0.01

_SETUP_PROBE = """\
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import levelsat.cli
levelsat.cli.load_config(sys.argv[2])
print(perf_counter() - t0)
"""


@dataclass
class Pass:
    traced: bool
    # command -> seconds of each execution
    seconds: dict[str, list[float]] = field(default_factory=dict)
    # command -> (captured stdout, {file name: sha256} of files it wrote)
    outputs: dict[str, tuple] = field(default_factory=dict)
    # command -> one list of problems per execution
    problems: dict[str, list[list[str]]] = field(default_factory=dict)
    chain_bytes: int = 0
    tracer: Optional[Tracer] = None

    @property
    def total_s(self) -> float:
        return sum(sum(ts) for ts in self.seconds.values())


def timings(passes: list[Pass]) -> tuple[float, float]:
    """(build_s, analyze_s): each command's median over all its executions
    in the passes; analyze_s sums the medians of the commands after build."""
    medians = {
        c: statistics.median(t for p in passes for t in p.seconds[c]) for c in passes[0].seconds
    }
    return medians["build"], sum(t for c, t in medians.items() if c != "build")


def run_command(argv: list[str]) -> tuple[Optional[int], str, float, Optional[str]]:
    """levelsat.cli.main(argv) with its output captured: (exit code or None
    if it raised, output, seconds, traceback)."""
    import levelsat.cli

    buf = io.StringIO()
    rc, err = None, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = perf_counter()
        try:
            rc = levelsat.cli.main(argv)
        except (Exception, SystemExit):
            err = traceback.format_exc()
        dt = perf_counter() - t0
    return rc, buf.getvalue(), dt, err


def _snapshot(work: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in work.iterdir()}


def run_pass(
    w: Workload, config: Path, work: Path, seed: int,
    expected: Optional[dict], anchor_id, tracer: Optional[Tracer] = None,
) -> Pass:
    """build, dim and divide in a fresh work directory. Untraced, a command
    shorter than MIN_COMMAND_S is repeated until it has run that long;
    traced, each command runs once. With expected None the answers are not
    checked."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    p = Pass(tracer is not None, tracer=tracer)
    before: dict[str, str] = {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        for command in w.commands:
            argv = command_argv(w, command, config, work, seed)
            times, runs = [], []
            while True:
                rc, stdout, dt, err = run_command(argv)
                times.append(dt)
                problems = []
                if err is not None:
                    problems.append(f"{command} raised:\n{err}")
                elif rc != 0:
                    problems.append(f"{command} exited {rc}: {stdout.strip()[-400:]}")
                elif expected is not None:
                    try:
                        problems += check_command(w, command, stdout, work, expected, anchor_id)
                    except (OSError, ValueError, KeyError) as e:
                        problems.append(f"{command} output unreadable: {e!r}")
                snap = _snapshot(work)
                if not runs:
                    first = (stdout, snap)
                    p.outputs[command] = (stdout, {k: v for k, v in snap.items() if before.get(k) != v})
                elif (stdout, snap) != first:
                    problems.append(f"{command} repeat {len(runs) + 1} output differs from the first")
                runs.append(problems)
                if problems or tracer is not None or sum(times) >= MIN_COMMAND_S:
                    break
            before = snap
            p.seconds[command] = times
            p.problems[command] = runs
    chain = work / f"{w.plugin}.chain.json"
    p.chain_bytes = chain.stat().st_size if chain.exists() else 0
    return p


def setup_seconds(config: Path) -> float:
    """Import levelsat and load the config in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def speed_probe_ms() -> float:
    """A fixed pure-Python loop, recorded as context for machine-speed drift;
    it is neither a metric nor a gate."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return (perf_counter() - t0) * 1000.0


def run_workload(w: Workload, expected: dict, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    anchor = pick_anchor(seed, [int(a) for a in expected["anchors"]])
    anchor_id = expected["fin1_anchor"] if anchor == ANCHOR_FIN1 else anchor
    config = run_dir / "config.yaml"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_config(w, anchor, config)
    work = run_dir / "work"
    probe = [speed_probe_ms()]
    setup = [] if trace else [setup_seconds(config) for _ in range(SETUP_REPEATS)]

    passes: list[Pass] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for tracer in (None, Tracer()) if trace else (None,):
            passes.append(run_pass(w, config, work, seed, expected, anchor_id, tracer))
        now = perf_counter()
        if now - start + (now - t0) > seconds:  # the next pass would overrun
            break
    probe.append(speed_probe_ms())

    # every pass, traced or not, must write what the first pass wrote
    for p in passes[1:]:
        for command, out in p.outputs.items():
            if out != passes[0].outputs[command]:
                p.problems[command][0].append(
                    f"{command} output differs from the first pass "
                    f"({'traced' if p.traced else 'untraced'} pass)"
                )
    runs = [msgs for p in passes for per_command in p.problems.values() for msgs in per_command]
    attempted = len(runs)
    failed = sum(1 for msgs in runs if msgs)
    for msgs in runs:
        for m in msgs:
            print(f"FAIL {m}")

    untraced = [p for p in passes if not p.traced]
    print(
        f"workload {w.name} seed {seed} anchor {anchor_id}: {len(untraced)} untraced and "
        f"{len(passes) - len(untraced)} traced passes, closed loop, 1 client, single-threaded"
    )
    print(f"speed_probe_ms before {probe[0]:.2f} after {probe[1]:.2f} (context only)")
    for command in w.commands:
        ts = [t for p in untraced for t in p.seconds[command]]
        print(f"{command}: {len(ts)} untraced executions, seconds " + " ".join(f"{t:.4f}" for t in ts))
    print(f"commands attempted {attempted}, failed {failed}, error_rate {failed / attempted:.4f}")

    correct = failed == 0
    if trace:
        metrics, ok = _layer_metrics(w, seed, anchor_id, passes, probe)
        correct = correct and ok
        units = dict(LAYER_METRICS)
    else:
        build_s, analyze_s = timings(untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "build_s": build_s,
            "analyze_s": analyze_s,
            "pipeline_s": build_s + analyze_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "chain_bytes": passes[0].chain_bytes,
            "success_rate": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _layer_metrics(w: Workload, seed: int, anchor_id, passes: list[Pass], probe) -> tuple[dict, bool]:
    """Median per-layer metrics over the traced passes, the tracing overhead,
    and the check that layer self times account for the traced pipeline."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [p.tracer.metrics() for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced_s = sum(timings(traced))
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - sum(timings(untraced))
    ok = True
    for p, m in zip(traced, per_pass):
        covered = sum(v for k, v in m.items() if k.endswith(".self_s"))
        share = covered / p.total_s
        print(f"layer self times cover {share:.5f} of a traced pass's {p.total_s:.4f} s")
        if abs(1.0 - share) > ACCOUNTING_TOLERANCE:
            print("FAIL layer self times do not account for the traced pipeline")
            ok = False
    print(
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s "
        f"({metrics['trace.overhead_s'] / (traced_s - metrics['trace.overhead_s']):.2%} of untraced pipeline_s)"
    )
    series = [[s, round(ms, 3), size] for s, ms, size in traced[0].tracer.stages]
    print("stage_series [stage, ms, |M| after]: " + json.dumps(series))
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{w.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": w.name,
        "seed": seed,
        "anchor": anchor_id,
        "speed_probe_ms": probe,
        "untraced_seconds": [p.seconds for p in untraced],
        "traced_passes": [dict(p.tracer.doc(), seconds=p.seconds) for p in traced],
        "metrics": metrics,
    }, indent=1) + "\n")
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return metrics, ok


def main(argv: Optional[list[str]] = None, workloads: Optional[dict] = None,
         expected: Optional[dict] = None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import levelsat.cli
    except ImportError as e:
        print(f"cannot import levelsat from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(levelsat.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"levelsat was imported from {levelsat.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    expected = load_expected() if expected is None else expected
    w = workloads[args.workload]
    run_dir = OUT / f"{w.name}-{os.getpid()}"
    try:
        result = run_workload(w, expected[w.name], args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
