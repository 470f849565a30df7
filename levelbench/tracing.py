"""Layer spans recorded from outside the program.

Each public function of a levelsat module is wrapped at the name its caller
looks up (`levelsat.construction.find_witness`, not the definition in
`levelsat.evaluator`), so calls inside a module stay unwrapped and cheap.
Every span records its duration and adds it to the child time of the span
that caused it; self time is duration minus child time. Spans are kept in
memory as per-name and per-(parent, name) aggregates and written out when
the run ends. Layers are the modules under src/levelsat.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "cli", "formula", "construction", "evaluator", "theory",
    "structures", "dimension", "dividing", "plots",
)


def _count_stage(tr, args, out, dt):
    M, audit = out
    c = tr.counters
    c["entries"] += len(audit.entries)
    for ea in audit.entries:
        c["skipped"] += ea.skipped
        c["processed"] += len(ea.records)
        for rec in ea.records:
            c[f"case{rec.case}"] += 1
    tr.stages.append((audit.stage, dt * 1000.0, M.size()))


def _count(key, test):
    def hook(tr, args, out, dt):
        tr.counters[key] += test(args, out)
    return hook


# (layer, owner: "module" or "module:Class", attribute the caller looks up, hook)
# extends_with_witness gets Tracer.wrap_extends instead of a hook.
SPANS = (
    ("cli", "levelsat.cli", "main", None),
    ("formula", "levelsat.cli", "seeded_schedule", None),
    ("formula", "levelsat.cli", "enumerate_schedule", None),
    ("construction", "levelsat.cli", "build_chain", None),
    ("construction", "levelsat.construction", "build_stage", _count_stage),
    ("construction", "levelsat.cli", "serialize_chain", None),
    ("construction", "levelsat.cli", "load_chain", None),
    ("evaluator", "levelsat.construction", "find_witness",
     _count("witness_hits", lambda a, out: out is not None)),
    ("evaluator", "levelsat.construction", "evaluate", None),
    ("evaluator", "levelsat.dimension", "solutions", None),
    ("evaluator", "levelsat.dividing", "solutions", None),
    ("evaluator", "levelsat.dividing", "diag_key", None),
    ("evaluator", "levelsat.dividing", "qf_type_equal", None),
    ("theory", "levelsat.theory:TheoryPlugin", "extends_with_witness", None),
    ("theory", "levelsat.theory:TheoryPlugin", "jointly_realizable",
     _count("joint_true", lambda a, out: bool(out))),
    ("structures", "levelsat.construction", "apply_delta",
     _count("new_elements", lambda a, out: len(a[1].new_elements))),
    ("structures", "levelsat.dividing", "apply_delta",
     _count("new_elements", lambda a, out: len(a[1].new_elements))),
    ("structures", "levelsat.cli", "canonical_json", None),
    ("structures", "levelsat.construction", "canonical_json", None),
    ("dimension", "levelsat.cli", "trend", None),
    ("dimension", "levelsat.dividing", "trend", None),
    ("dimension", "levelsat.cli", "dim_compare", None),
    ("dimension", "levelsat.dividing", "dim_compare", None),
    ("dimension", "levelsat.cli", "export_trend_csv", None),
    ("dividing", "levelsat.cli", "certify_dividing", None),
    ("dividing", "levelsat.cli", "find_dimension_drop",
     _count("drop_candidates", lambda a, out: out.candidates_total)),
    ("plots", "levelsat.cli", "trend_plot_svg", None),
)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("formula.schedule_s", "s"), ("formula.schedule_calls", "count"),
    ("construction.build_stage_self_s", "s"),
    ("construction.stage_ms_p50", "ms"), ("construction.stage_ms_max", "ms"),
    ("construction.entries", "count"), ("construction.case1", "count"),
    ("construction.case2", "count"), ("construction.case3", "count"),
    ("construction.skip_ratio", "ratio"),
    ("construction.serialize_s", "s"), ("construction.load_s", "s"),
    ("evaluator.find_witness_calls", "count"), ("evaluator.find_witness_s", "s"),
    ("evaluator.find_witness_hit_ratio", "ratio"),
    ("evaluator.solutions_calls", "count"), ("evaluator.solutions_s", "s"),
    ("theory.extends_calls", "count"), ("theory.extends_s", "s"),
    ("theory.extends_refused_ratio", "ratio"), ("theory.check_oracle_s", "s"),
    ("theory.joint_calls", "count"), ("theory.joint_s", "s"),
    ("theory.joint_realizable_ratio", "ratio"),
    ("structures.apply_delta_calls", "count"), ("structures.apply_delta_s", "s"),
    ("structures.new_elements", "count"),
    ("dimension.trend_calls", "count"), ("dimension.trend_s", "s"),
    ("dimension.dim_compare_s", "s"),
    ("dividing.certify_calls", "count"), ("dividing.certify_self_s", "s"),
    ("dividing.drop_s", "s"), ("dividing.drop_candidates", "count"),
    ("plots.svg_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.pipeline_s", "s"), ("trace.overhead_s", "s"),
)


class Tracer:
    """Span aggregates for one traced pass of the pipeline."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total s]
        self.counters: Counter = Counter()
        self.stages: list[tuple[int, float, int]] = []  # (stage, ms, |M| after)
        self.check_calls = 0
        self.check_s = 0.0
        self.refused = 0
        self._last_extends = None

    def wrap(self, name: str, fn, hook):
        stack = self.stack

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            self._last_extends = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._close(name, dt, frame[1])
            if hook is not None:
                hook(self, args, out, dt)
            return out

        return span

    def wrap_extends(self, fn):
        """extends_with_witness, telling apart build_stage's repeat oracle
        call: the second of two back-to-back calls with equal arguments."""
        inner = self.wrap("theory.extends_with_witness", fn, None)

        def span(plugin, M, *rest, **kwargs):
            key = (id(M), rest, sorted(kwargs.items()))
            repeat = key == self._last_extends
            t0 = perf_counter()
            out = inner(plugin, M, *rest, **kwargs)
            if repeat:
                self.check_calls += 1
                self.check_s += perf_counter() - t0
            else:
                self.refused += out is None
            self._last_extends = None if repeat else key
            return out

        return span

    def _close(self, name: str, dt: float, child: float) -> None:
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        edge = self.edges.setdefault((parent[0] if parent else None, name), [0, 0.0])
        edge[0] += 1
        edge[1] += dt

    @contextmanager
    def installed(self):
        """Wrap every span target for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr, hook in SPANS:
                module, _, cls = owner.partition(":")
                obj = importlib.import_module(module)
                if cls:
                    obj = getattr(obj, cls)
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                if attr == "extends_with_witness":
                    setattr(obj, attr, self.wrap_extends(fn))
                else:
                    setattr(obj, attr, self.wrap(f"{layer}.{attr}", fn, hook))
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    # -- derived metrics -------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for name, s in self.spans.items() if name.split(".")[0] == layer)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* pair, which needs the
        untraced run."""
        c = self.counters
        fw = self.calls("evaluator.find_witness")
        ext = self.calls("theory.extends_with_witness")
        joint = self.calls("theory.jointly_realizable")
        stage_ms = [ms for _, ms, _ in self.stages] or [0.0]
        primaries = ext - self.check_calls
        out = {
            "formula.schedule_s": self.total("formula.seeded_schedule")
            + self.total("formula.enumerate_schedule"),
            "formula.schedule_calls": self.calls("formula.seeded_schedule")
            + self.calls("formula.enumerate_schedule"),
            "construction.build_stage_self_s": self.self_time("construction.build_stage"),
            "construction.stage_ms_p50": statistics.median(stage_ms),
            "construction.stage_ms_max": max(stage_ms),
            "construction.entries": c["entries"],
            "construction.case1": c["case1"],
            "construction.case2": c["case2"],
            "construction.case3": c["case3"],
            "construction.skip_ratio": _ratio(c["skipped"], c["skipped"] + c["processed"]),
            "construction.serialize_s": self.total("construction.serialize_chain"),
            "construction.load_s": self.total("construction.load_chain"),
            "evaluator.find_witness_calls": fw,
            "evaluator.find_witness_s": self.total("evaluator.find_witness"),
            "evaluator.find_witness_hit_ratio": _ratio(c["witness_hits"], fw),
            "evaluator.solutions_calls": self.calls("evaluator.solutions"),
            "evaluator.solutions_s": self.total("evaluator.solutions"),
            "theory.extends_calls": ext,
            "theory.extends_s": self.total("theory.extends_with_witness"),
            "theory.extends_refused_ratio": _ratio(self.refused, primaries),
            "theory.check_oracle_s": self.check_s,
            "theory.joint_calls": joint,
            "theory.joint_s": self.total("theory.jointly_realizable"),
            "theory.joint_realizable_ratio": _ratio(c["joint_true"], joint),
            "structures.apply_delta_calls": self.calls("structures.apply_delta"),
            "structures.apply_delta_s": self.total("structures.apply_delta"),
            "structures.new_elements": c["new_elements"],
            "dimension.trend_calls": self.calls("dimension.trend"),
            "dimension.trend_s": self.total("dimension.trend"),
            "dimension.dim_compare_s": self.total("dimension.dim_compare"),
            "dividing.certify_calls": self.calls("dividing.certify_dividing"),
            "dividing.certify_self_s": self.self_time("dividing.certify_dividing"),
            "dividing.drop_s": self.total("dividing.find_dimension_drop"),
            "dividing.drop_candidates": c["drop_candidates"],
            "plots.svg_s": self.total("plots.trend_plot_svg"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self(layer)
        return out

    def doc(self) -> dict:
        """The spans as written to the trace file."""
        return {
            "spans": {n: dict(zip(("calls", "total_s", "self_s"), s)) for n, s in self.spans.items()},
            "edges": [
                {"parent": p, "name": n, "calls": e[0], "total_s": e[1]}
                for (p, n), e in self.edges.items()
            ],
            "counters": dict(self.counters),
            "stages": [{"stage": s, "ms": ms, "size": size} for s, ms, size in self.stages],
        }


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0
