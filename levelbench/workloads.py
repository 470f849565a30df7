"""The benchmark's workloads, the configs generated from them, and the checks
of each command's output against the recorded expected answers.

A workload is one levelsat experiment: a theory plugin, a stage count, one
anchored definable set compared against the omega-capped universe, and
optional dividing experiments on the same formula. The workload seed only
picks the anchor element (the parameter bound to y0 and to the base instance
b); the program itself sees nothing but the generated config.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ANCHOR_FIN1 = "first_at_level fin1"
EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    plugin: str
    stages: int
    window: int
    set_name: str
    formula: str  # the anchored set; y0 is the anchor
    dividing: tuple[tuple[str, int, int], ...]  # (experiment name, k, L)
    divide_expect: tuple[str, ...]  # outcomes the theory fixes

    @property
    def commands(self) -> tuple[str, ...]:
        return ("build", "dim", "divide") if self.dividing else ("build", "dim")

    @property
    def window_start(self) -> int:
        """First stage the comparator reads; anchors must exist before it."""
        return self.stages - self.window + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equiv_chain60", "generic_equivalence", 60, 10,
            "class_of_b", "E(x0, y0)", (("class_drop", 2, 3),), ("certified", "drop"),
        ),
        Workload(
            "rado_control30", "random_graph", 30, 10,
            "neighbors_of_b", "R(x0, y0)",
            (("neighbor_k2", 2, 8), ("neighbor_k3", 3, 8), ("neighbor_k4", 4, 8)),
            ("not-certified",),
        ),
        Workload(
            "henson_veto36", "henson_triangle_free", 36, 10,
            "neighbors_of_b", "R(x0, y0)", (), (),
        ),
    )
}


def pick_anchor(seed: int, candidates: list[int]):
    """Seed 0 keeps the bundled configs' anchor; any other seed draws one of
    the elements that exist before the comparison window opens."""
    if seed == 0:
        return ANCHOR_FIN1
    return random.Random(seed).choice(sorted(candidates))


def config_doc(w: Workload, anchor) -> dict:
    sets = {
        "ambient": {"formula": "x0 = x0", "cap": "omega"},
        w.set_name: {"formula": w.formula, "cap": "omega", "params": {"y0": anchor}},
    }
    return {
        "plugin": w.plugin,
        "stages": w.stages,
        "schedule": "seeded",
        "horizon": 4,
        "comparator": {"window": w.window, "bound": 2.0},
        "sets": sets,
        "comparisons": [[w.set_name, "ambient"]],
        "dividing": [
            {"name": name, "phi": w.formula, "psi": "ambient", "a": [], "b": [anchor],
             "k": k, "L": L}
            for name, k, L in w.dividing
        ],
    }


def write_config(w: Workload, anchor, path: Path) -> None:
    # JSON is valid YAML, so the config needs no YAML writer
    path.write_text(json.dumps(config_doc(w, anchor), indent=2) + "\n")


def command_argv(w: Workload, command: str, config: Path, work: Path, seed: int) -> list[str]:
    argv = [command, "--config", str(config), "--out-dir", str(work)]
    if command != "build":
        argv += ["--chain", str(work / f"{w.plugin}.chain.json")]
    if command == "divide":
        argv += ["--seed", str(seed)]
        for token in w.divide_expect:
            argv += ["--expect", token]
    return argv


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


# ---------------------------------------------------------------------------
# reading the program's outputs

_FINAL = re.compile(r"^final size (\d+); levels (.*)$", re.M)
_AUDIT = re.compile(
    r"^stage (\d+) pos \d+ level \S+ \|V\|=\d+ skipped=\d+ "
    r"internal=(\d+) oracle=(\d+) unrealizable=(\d+)$"
)


def build_answers(w: Workload, stdout: str, work: Path) -> dict:
    """final |M|, level histogram and per-stage case-1/2/3 counts."""
    m = _FINAL.search(stdout)
    if m is None:
        raise ValueError("build printed no 'final size' line")
    cases = [[0, 0, 0] for _ in range(w.stages)]
    for line in (work / f"{w.plugin}.audit.txt").read_text().splitlines():
        a = _AUDIT.match(line)
        if a is None:
            raise ValueError(f"unreadable audit line {line!r}")
        row = cases[int(a.group(1)) - 1]
        for i in range(3):
            row[i] += int(a.group(i + 2))
    return {"final_size": int(m.group(1)), "levels": m.group(2), "stage_cases": cases}


def dim_answers(work: Path) -> list[str]:
    report = json.loads((work / "dim_report.json").read_text())
    return [c["verdict"] for c in report["comparisons"]]


def divide_answers(work: Path) -> list[dict]:
    report = json.loads((work / "divide_report.json").read_text())
    return [
        {"certified": e["certified"], "drop": e["n_diverges_neg"] > 0}
        for e in report["experiments"]
    ]


def check_command(
    w: Workload, command: str, stdout: str, work: Path, expected: dict, anchor_id: Optional[int]
) -> list[str]:
    """Mismatches between one command's output and the expected answers."""
    if command == "build":
        got = build_answers(w, stdout, work)
        return [
            f"build {key}: got {got[key]!r}, expected {expected[key]!r}"
            for key in ("final_size", "levels", "stage_cases")
            if got[key] != expected[key]
        ]
    if command == "dim":
        got = dim_answers(work)
        want = expected["anchors"].get(str(anchor_id))
        return [] if got == want else [f"dim verdicts {got} for anchor {anchor_id}, expected {want}"]
    want = {"certified": "certified" in w.divide_expect, "drop": "drop" in w.divide_expect}
    got = divide_answers(work)
    problems = [] if len(got) == len(w.dividing) else [f"divide ran {len(got)} experiments"]
    for (name, _, _), outcome in zip(w.dividing, got):
        for key in ("certified", "drop"):
            # a drop is only fixed by the theory where the workload expects one
            if outcome[key] != want[key] and (key == "certified" or want[key]):
                problems.append(f"divide {name}: {key}={outcome[key]}")
    return problems
