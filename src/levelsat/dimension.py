"""Finite-stage dimension bookkeeping: trends, comparator verdicts, exact
measure, and the quasi-dimension sanity checks.

The dimension stand-in for a definable set X at a stage is log|X|, natural
log, with the empty set carried as "no value" rather than a float infinity.
Comparisons never do arithmetic on infinities: empty-versus-nonempty window
stages force a verdict by convention, stated in dim_compare's docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .evaluator import DefinableSet, evaluate, solutions
from .formula import And, Formula, is_quantifier_free, render, rename_vars
from .structures import FinStructure

BOUNDED = "Bounded"
DIVERGES_POS = "DivergesPos"
DIVERGES_NEG = "DivergesNeg"
INCONCLUSIVE = "Inconclusive"
VERDICTS = (BOUNDED, DIVERGES_POS, DIVERGES_NEG, INCONCLUSIVE)

_EPS = 1e-9


@dataclass(frozen=True)
class DimTrend:
    """Counts of one definable set along a chain. counts[i] is the count at
    stage start_stage + i; the final entry is the chain's last stage. Zero
    counts have no log value (the None stands in for minus infinity, never a
    float sentinel)."""

    label: str
    start_stage: int
    counts: tuple[int, ...]

    @property
    def end_stage(self) -> int:
        return self.start_stage + len(self.counts) - 1

    def count_at(self, stage: int) -> int:
        if not self.start_stage <= stage <= self.end_stage:
            raise ValueError(f"stage {stage} outside trend [{self.start_stage}, {self.end_stage}]")
        return self.counts[stage - self.start_stage]

    def log_count_at(self, stage: int) -> Optional[float]:
        c = self.count_at(stage)
        return math.log(c) if c else None


def stage_solutions(chain, dset: DefinableSet, start: int) -> Iterator[set]:
    """dset's solutions at each stage from start, which must hold every
    parameter, to the last. Stage s is final cut to the ids it holds, so a
    quantifier-free set is searched once in chain.final and each solution
    counts from chain.stage_of(its ids and the parameters) on. A set with a
    quantifier is searched in each of chain.stages, since its quantifiers
    range over the ids a stage holds. The set yielded may grow in place."""
    if not is_quantifier_free(dset.formula):
        yield from (set(solutions(M, dset)) for M in chain.stages[start:])
        return
    params = tuple(e for _, e in dset.params)
    arrived: list[list] = [[] for _ in range(chain.n_stages + 1)]
    for sol in solutions(chain.final, dset):
        arrived[chain.stage_of(sol + params)].append(sol)
    sols: set = set()
    for stage, new in enumerate(arrived):
        sols.update(new)
        if stage >= start:
            yield sols


def trend(chain, dset: DefinableSet, label: Optional[str] = None) -> DimTrend:
    """Counts from chain.stage_of(the parameters), the first stage holding
    them all, read through stage_solutions. Counts never decrease for a
    quantifier-free set or an exists over a quantifier-free body; a negated
    exists can lose solutions as witnesses arrive."""
    needed = [eid for _, eid in dset.params]
    if not all(e in chain.final for e in needed):
        raise ValueError("trend parameters never appear in the chain")
    start = chain.stage_of(needed)
    counts = tuple(map(len, stage_solutions(chain, dset, start)))
    return DimTrend(render(dset.formula) if label is None else label, start, counts)


@dataclass(frozen=True)
class DimCompareResult:
    verdict: str
    window_start: int
    window_end: int
    ds: tuple[Optional[float], ...]  # None marks an empty-set stage
    evidence: str

    @property
    def d_final(self) -> Optional[float]:
        return self.ds[-1]


def dim_compare(
    t1: DimTrend, t2: DimTrend, window: int, bound: float
) -> DimCompareResult:
    """Compare log-count gaps d = log c1 - log c2 over the final `window`
    stages.

    Conventions, in order:
      * a window stage with c1 = 0 < c2 forces DivergesNeg (the left set is
        empty, gap is minus infinity); c2 = 0 < c1 forces DivergesPos; both
        kinds at once is Inconclusive; stages with c1 = c2 = 0 contribute 0.
      * otherwise, with all gaps finite: Bounded iff max|d| <= bound and
        max(d) - min(d) <= bound / 2; DivergesNeg iff d is weakly
        nonincreasing, ends below -bound, and ends strictly below its start;
        DivergesPos is the mirror image; anything else is Inconclusive.

    Swapping the two trends negates every gap, so the result is antisymmetric:
    Bounded and Inconclusive are stable, the two Diverges verdicts swap.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if t1.end_stage != t2.end_stage:
        raise ValueError("trends end at different stages")
    end = t1.end_stage
    start = end - window + 1
    if t1.start_stage > start or t2.start_stage > start:
        raise ValueError(
            f"trend does not cover the comparison window [{start}, {end}]"
        )
    ds: list[Optional[float]] = []
    neg_inf = []
    pos_inf = []
    for stage in range(start, end + 1):
        c1 = t1.count_at(stage)
        c2 = t2.count_at(stage)
        if c1 == 0 and c2 == 0:
            ds.append(0.0)
        elif c1 == 0:
            ds.append(None)
            neg_inf.append(stage)
        elif c2 == 0:
            ds.append(None)
            pos_inf.append(stage)
        else:
            ds.append(math.log(c1) - math.log(c2))
    dst = tuple(ds)
    if neg_inf and pos_inf:
        return DimCompareResult(
            INCONCLUSIVE,
            start,
            end,
            dst,
            f"empty sets on both sides (left at {neg_inf}, right at {pos_inf})",
        )
    if neg_inf:
        return DimCompareResult(
            DIVERGES_NEG, start, end, dst,
            f"left set empty while the right is not at stages {neg_inf}",
        )
    if pos_inf:
        return DimCompareResult(
            DIVERGES_POS, start, end, dst,
            f"right set empty while the left is not at stages {pos_inf}",
        )
    vals = [d for d in ds if d is not None]
    hi, lo = max(vals), min(vals)
    if max(abs(hi), abs(lo)) <= bound and hi - lo <= bound / 2:
        return DimCompareResult(
            BOUNDED, start, end, dst,
            f"gaps stay within [{lo:.4f}, {hi:.4f}], bound {bound}",
        )
    nonincreasing = all(vals[i + 1] <= vals[i] + _EPS for i in range(len(vals) - 1))
    nondecreasing = all(vals[i + 1] >= vals[i] - _EPS for i in range(len(vals) - 1))
    if vals[-1] < -bound and nonincreasing and vals[-1] < vals[0]:
        return DimCompareResult(
            DIVERGES_NEG, start, end, dst,
            f"gap falls from {vals[0]:.4f} to {vals[-1]:.4f}, below -{bound}",
        )
    if vals[-1] > bound and nondecreasing and vals[-1] > vals[0]:
        return DimCompareResult(
            DIVERGES_POS, start, end, dst,
            f"gap rises from {vals[0]:.4f} to {vals[-1]:.4f}, above {bound}",
        )
    return DimCompareResult(
        INCONCLUSIVE, start, end, dst,
        f"gaps in [{lo:.4f}, {hi:.4f}] fit no verdict at bound {bound}",
    )


# ---------------------------------------------------------------------------
# exact measure and the quasi-dimension checks


def mu(M: FinStructure, X: DefinableSet, Y: DefinableSet) -> Fraction:
    """Exact relative measure |Y| / |X| as a Fraction, meaningful when Y is
    a subset of X. An empty X has no measure and raises ValueError."""
    cx = len(solutions(M, X))
    if cx == 0:
        raise ValueError("measure against an empty set")
    return Fraction(len(solutions(M, Y)), cx)


def _disjoin_names(X: DefinableSet, Y: DefinableSet) -> DefinableSet:
    taken = set(X.vars) | {v for v, _ in X.params}
    mapping = {}
    for v in set(Y.vars) | {v for v, _ in Y.params}:
        if v in taken:
            w = v
            while w in taken:
                w += "_r"
            mapping[v] = w
            taken.add(w)
    if not mapping:
        return Y
    return DefinableSet(
        rename_vars(Y.formula, mapping),
        tuple(mapping.get(v, v) for v in Y.vars),
        tuple((mapping.get(v, v), e) for v, e in Y.params),
        Y.cap,
    )


def product_set(X: DefinableSet, Y: DefinableSet) -> DefinableSet:
    """The definable product: solutions are concatenated solution tuples.
    Requires matching caps, since a definable set has one cap for all its
    variables. |product| = |X| * |Y| exactly, at every stage."""
    if X.cap != Y.cap:
        raise ValueError("product factors must share a level cap")
    Y2 = _disjoin_names(X, Y)
    return DefinableSet(
        And(X.formula, Y2.formula),
        X.vars + Y2.vars,
        X.params + Y2.params,
        X.cap,
    )


@dataclass(frozen=True)
class QuasiAxiomViolation:
    stage: int
    kind: str  # "zero_marker" | "union_lower" | "union_upper" | "fiber"
    detail: str


@dataclass(frozen=True)
class QuasiAxiomReport:
    """Per-stage exact checks of the finite-stage dimension identities:
    the zero count carries the minus-infinity marker and nothing else does,
    every pairwise union count sits between the max and the sum, and with
    fibered data the total count is at most the largest fiber times the
    base count."""

    start_stage: int
    end_stage: int
    n_sets: int
    union_pairs_checked: int
    fiber_checked: bool
    violations: tuple[QuasiAxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def quasi_axiom_report(
    chain,
    sets: Sequence[DefinableSet],
    fibered: Optional[tuple[Formula, DefinableSet]] = None,
) -> QuasiAxiomReport:
    """Check the quasi-dimension identities on every stage where all the
    sets' parameters exist. All sets must share solution variables and cap,
    since unions are taken across them. fibered = (f, Z) additionally checks
    |sets[0]| <= max_z |fiber over z| * |Z| per stage, where the fiber over a
    Z-solution z is the part of sets[0] related to z by f. Each stage is
    searched in chain.stages, so the zero-marker check holds every trend,
    read from final or not, against an independent recount."""
    if not sets:
        raise ValueError("need at least one set")
    for d in sets[1:]:
        if d.vars != sets[0].vars or d.cap != sets[0].cap:
            raise ValueError("union checks need matching variables and cap")
    trends = [trend(chain, d) for d in sets]
    start = max(t.start_stage for t in trends)
    base_trend = None
    if fibered is not None:
        base_trend = trend(chain, fibered[1])
        start = max(start, base_trend.start_stage)
    end = trends[0].end_stage
    violations: list[QuasiAxiomViolation] = []
    for stage in range(start, end + 1):
        M = chain.stages[stage]
        sols = [set(solutions(M, d)) for d in sets]
        for i, (t, s) in enumerate(zip(trends, sols)):
            marker = t.log_count_at(stage) is None
            if (len(s) == 0) != marker:
                violations.append(
                    QuasiAxiomViolation(stage, "zero_marker", f"set {i} count {len(s)}")
                )
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                cu = len(sols[i] | sols[j])
                if cu < max(len(sols[i]), len(sols[j])):
                    violations.append(
                        QuasiAxiomViolation(stage, "union_lower", f"sets {i},{j}")
                    )
                if cu > len(sols[i]) + len(sols[j]):
                    violations.append(
                        QuasiAxiomViolation(stage, "union_upper", f"sets {i},{j}")
                    )
        if fibered is not None:
            f, Z = fibered
            zsols = solutions(M, Z)
            biggest = 0
            for z in zsols:
                env = dict(Z.params) | dict(zip(Z.vars, z))
                fiber = 0
                for x in sols[0]:
                    if evaluate(M, f, env | dict(zip(sets[0].vars, x))):
                        fiber += 1
                biggest = max(biggest, fiber)
            if len(sols[0]) > biggest * len(zsols):
                violations.append(
                    QuasiAxiomViolation(
                        stage,
                        "fiber",
                        f"{len(sols[0])} > {biggest} * {len(zsols)}",
                    )
                )
    return QuasiAxiomReport(
        start, end, len(sets), len(sets) * (len(sets) - 1) // 2,
        fibered is not None, tuple(violations),
    )


def export_trend_csv(t: DimTrend) -> str:
    """CSV with columns stage, count, log_count; zero counts export the
    log as -inf."""
    lines = ["stage,count,log_count"]
    for i, c in enumerate(t.counts):
        log = repr(math.log(c)) if c else "-inf"
        lines.append(f"{t.start_stage + i},{c},{log}")
    return "\n".join(lines) + "\n"


def read_trend_csv(text: str) -> list[tuple[int, int, Optional[float]]]:
    """Inverse of export_trend_csv: (stage, count, log or None) rows, the
    -inf cell coming back as the None marker."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "stage,count,log_count":
        raise ValueError("not a trend CSV")
    out = []
    for line in lines[1:]:
        stage, cnt, log = line.split(",")
        out.append((int(stage), int(cnt), None if log == "-inf" else float(log)))
    return out
