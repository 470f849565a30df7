"""Short self-test of the benchmark, under a minute.

    python3 levelbench/selftest.py

Every workload is shrunk to 12 stages with a 5-stage comparator window, its
expected answers are recorded from the checkout, and the benchmark runs one
pass with --trace 0 and one pair of passes with --trace 1. Each result line
must name exactly the end-to-end or per-layer metrics of BENCHMARK.json, each
with its unit, and report no failed command. The checker must then report
a wrong dim verdict and a wrong case count as two failed commands, and the
benchmark must refuse, without a result, to run in a directory holding only
BENCHMARK.json and its own files.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import record_expected
import run
from workloads import WORKLOADS

STAGES, WINDOW = 12, 5


def result_of(argv, workloads, expected) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv, workloads=workloads, expected=expected)
    if rc != 0:
        raise AssertionError(f"{argv}: exit {rc}\n{buf.getvalue()}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
    assert result["attempted"] >= 1, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload list"
    run.OUT = run.OUT / "selftest"
    # the equivalence drop needs more stages than the self-test builds
    small = {
        name: replace(w, stages=STAGES, window=WINDOW,
                      divide_expect=tuple(e for e in w.divide_expect if e != "drop"))
        for name, w in WORKLOADS.items()
    }
    try:
        expected = {}
        for name, w in small.items():
            expected[name] = record_expected.record(w, run.OUT / f"record-{name}")
            for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                argv = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
                check_metrics(result_of(argv, small, expected), wanted, f"{name} --trace {trace}")
                print(f"ok {name} --trace {trace}")

        name = "equiv_chain60"
        wrong = copy.deepcopy(expected)
        wrong[name]["anchors"][str(wrong[name]["fin1_anchor"])] = ["Bogus"]
        wrong[name]["stage_cases"][0][0] += 1
        argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "0"]
        bad = result_of(argv, small, wrong)
        assert not bad["correct"] and bad["failed"] == 2, bad
        print("ok wrong answers are counted as failed commands")

        bare = run.OUT / "bare"
        shutil.copytree(run.ROOT / "levelbench", bare / "levelbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            bench["command"] + ["--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0 and '"metrics"' not in done.stdout, done
        print("ok no result without the source tree")
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
