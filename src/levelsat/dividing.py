"""Dividing certificates, the dimension-drop survey, and the covering bound.

A formula phi(x-bar; y-bar) divides along the type of b-bar when some
infinite family of instances phi(x-bar; c-bar_i), all c-bar_i of the same
type as b-bar over the fixed parameters, is k-inconsistent: no k of them are
jointly realizable. certify_dividing checks a finite form of this: L
instances of b-bar's quantifier-free type over a-bar whose k-subsets the
oracle refuses. Joint unrealizability depends only on the quantifier-free
type of the parameters involved, so such a family stays k-inconsistent in
every later or extended structure, and certify_dividing asks the oracle once
per atomic diagram of a k-subset's parameters; every later subset with that
diagram reads the answer from a memo kept for the one call.

Finite k-inconsistency is not dividing, and the instances may share
elements, so a certificate does not show that phi divides. On the 30-stage
henson_triangle_free chain the search certifies R(x0, y0) & !R(x0, y1) over
the non-edge (0, 4) at (k, L) = (2, 3) and (3, 5), and that formula does not
divide (ROADMAP item 1; pinned by test_henson_split_pair_is_not_certified).
Nor is the search complete: a None return means it found no certificate,
not that none exists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .construction import InternalFaultError, StageChain
from .dimension import DIVERGES_NEG, DimCompareResult, DimTrend, dim_compare, stage_solutions, trend
from .evaluator import DefinableSet, diag_key, diagram, qf_type_equal, solutions
from .formula import (
    Eq,
    Formula,
    Not,
    RelAtom,
    conjoin,
    fin,
    render,
    roles,
)
from .structures import FinStructure, apply_delta
from .theory import TheoryPlugin

_MAX_POOL = 10_000  # same-type tuples kept by _matching_tuples
_LITERAL_CAP = 300_000  # largest multiset space covering_check enumerates
_SAMPLES = 200  # random families covering_check tries


def _matching_tuples(
    M: FinStructure, a_ids: tuple[int, ...], b_ids: tuple[int, ...], seed: int
) -> list[tuple[int, ...]]:
    """All tuples with the quantifier-free type of b_ids over a_ids, in
    ascending order; a seeded sample (always keeping b_ids) when there are
    more than _MAX_POOL. The tuples are the solutions of b's diagram over
    a, searched through the neighbour index."""
    if not b_ids:
        return [()]  # the one tuple of length 0
    chi, p_vars, w_vars, p_ids = _type_formula(M, a_ids, b_ids, ())
    pool = solutions(M, DefinableSet(chi, w_vars, tuple(zip(p_vars, p_ids))))
    if len(pool) > _MAX_POOL:
        rng = random.Random(seed)
        keep = set(rng.sample(range(len(pool)), _MAX_POOL - 1))
        keep.add(pool.index(b_ids))
        pool = [c for i, c in enumerate(pool) if i in keep]
    return pool


@dataclass(frozen=True)
class DividesWitness:
    """A verified k-inconsistent family. instances are the parameter tuples,
    type_confirmations records each instance's type equality against the
    first (over a_ids), confirmations the k-subsets (as index tuples) checked
    jointly unrealizable, grown how many instances came from oracle growth
    after the greedy pass, structure the structure the certificate lives
    in."""

    formula_text: str
    k: int
    a_ids: tuple[int, ...]
    instances: tuple[tuple[int, ...], ...]
    type_confirmations: tuple[bool, ...]
    confirmations: tuple[tuple[int, ...], ...]
    grown: int
    structure: FinStructure


def _next_fin_level(M: FinStructure):
    top = -1
    for e in M.universe:
        lv = M.level_of(e)
        if lv.tag == "fin":
            top = max(top, lv.index)
    return fin(top + 1)


def _type_formula(
    M: FinStructure,
    a_ids: tuple[int, ...],
    b_ids: tuple[int, ...],
    family_ids: tuple[int, ...],
) -> tuple[Formula, tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
    """A formula asking for a copy of b_ids over a_ids, apart from the
    listed family elements: the copy repeats b's diagram over a exactly and
    carries no relation to, and no equality with, any family element. With
    no family it is b's diagram over a, the quantifier-free type itself.
    b_ids must not be empty.

    Returns (formula, param_vars, witness_vars, param_ids)."""
    p_vars = tuple(f"p{i}" for i in range(len(a_ids)))
    w_vars = tuple(f"w{i}" for i in range(len(b_ids)))
    f_vars = tuple(f"f{i}" for i in range(len(family_ids)))
    parts = diagram(M, a_ids + b_ids, p_vars + w_vars, len(a_ids))
    # apartness from the family: no equality, no relation in either direction
    for wv in w_vars:
        for fv in f_vars:
            parts.append(Not(Eq(wv, fv)))
    for rel, arity in sorted(M.signature.relations):
        if arity < 2:
            continue
        slots = list(w_vars) + list(f_vars)
        for picks in itertools.product(slots, repeat=arity):
            if any(s in w_vars for s in picks) and any(s in f_vars for s in picks):
                parts.append(Not(RelAtom(rel, tuple(picks))))
    if not parts:
        parts.append(Eq(w_vars[0], w_vars[0]))
    return conjoin(parts), p_vars + f_vars, w_vars, a_ids + family_ids


def certify_dividing(
    plugin: TheoryPlugin,
    chain: StageChain,
    phi: Formula,
    a_ids: tuple[int, ...],
    b_ids: tuple[int, ...],
    k: int,
    L: int,
    *,
    seed: int = 0,
) -> Optional[DividesWitness]:
    """Search for a k-inconsistent family of L instances of phi along the
    type of b_ids over a_ids. Greedy pass over same-type tuples in the final
    stage first; if that stalls, grow the structure one fresh copy of the
    type at a time (apart from the family found so far) until L instances
    are confirmed or a growth step fails. None means no certificate found.
    k = 1 is the degenerate reading: every instance alone unrealizable.

    The oracle is asked once per diag_key of a_ids followed by the subset's
    instances in order, since its answer depends on nothing else
    (TheoryPlugin docstring); the memo is this call's own, as the answer
    also depends on phi."""
    xs, ys, rest = roles(phi)
    if len(rest) != len(a_ids):
        raise ValueError(f"phi has {len(rest)} parameter slots, got {len(a_ids)} ids")
    if len(ys) != len(b_ids):
        raise ValueError(f"phi has {len(ys)} instance slots, got {len(b_ids)} ids")
    if not ys or not xs:
        raise ValueError("phi needs at least one x and one y variable")
    if k < 1 or L < k:
        raise ValueError("need k >= 1 and L >= k")
    M = chain.final
    base = tuple(zip(rest, a_ids))

    def constraint(c: tuple[int, ...]) -> tuple[Formula, dict[str, int]]:
        return phi, dict(base + tuple(zip(ys, c)))

    family: list[tuple[int, ...]] = []
    confirmations: list[tuple[int, ...]] = []
    realizable: dict[tuple, bool] = {}

    def admit(c: tuple[int, ...], M_now: FinStructure) -> bool:
        """True iff every k-subset formed with c is jointly unrealizable;
        records the confirmed subsets. Rejection leaves no record."""
        fresh: list[tuple[int, ...]] = []
        for S in itertools.combinations(range(len(family)), k - 1):
            key = diag_key(M_now, a_ids + tuple(e for i in S for e in family[i]) + c)
            if key not in realizable:
                cons = [constraint(family[i]) for i in S] + [constraint(c)]
                realizable[key] = plugin.jointly_realizable(M_now, xs, cons)
            if realizable[key]:
                return False
            fresh.append(S + (len(family),))
        confirmations.extend(fresh)
        return True

    for c in _matching_tuples(M, a_ids, b_ids, seed):
        if admit(c, M):
            family.append(c)
            if len(family) >= L:
                break

    grown = 0
    target = diag_key(M, a_ids + b_ids)
    while len(family) < L:
        fam_ids = tuple(sorted({e for c in family for e in c if e not in a_ids}))
        chi, p_vars, w_vars, p_ids = _type_formula(M, a_ids, b_ids, fam_ids)
        ext = plugin.extends_with_witness(
            M,
            chi,
            p_ids,
            _next_fin_level(M),
            x_vars=p_vars,
            y_vars=w_vars,
        )
        if ext is None:
            return None
        M = apply_delta(M, ext.delta)
        c = ext.witness
        if diag_key(M, a_ids + c) != target:
            raise InternalFaultError("grown instance has the wrong type")
        if not admit(c, M):
            return None
        family.append(c)
        grown += 1

    types_ok = tuple(qf_type_equal(M, c, family[0], over=a_ids) for c in family)
    return DividesWitness(
        render(phi), k, a_ids, tuple(family), types_ok, tuple(confirmations), grown, M
    )


# ---------------------------------------------------------------------------
# dimension-drop survey


@dataclass(frozen=True)
class DropEntry:
    instance: tuple[int, ...]
    result: DimCompareResult

    def rank(self) -> tuple[int, float]:
        """Most negative first: instances whose set goes empty inside the
        window beat any finite gap."""
        if self.result.verdict == DIVERGES_NEG and None in self.result.ds:
            return (0, 0.0)
        d = self.result.d_final
        return (1, d if d is not None else 0.0)


@dataclass(frozen=True)
class DropReport:
    psi_trend: DimTrend
    base_trend: DimTrend
    candidates_total: int
    skipped_late: tuple[tuple[int, ...], ...]
    entries: tuple[DropEntry, ...]

    @property
    def diverging(self) -> tuple[DropEntry, ...]:
        return tuple(e for e in self.entries if e.result.verdict == DIVERGES_NEG)

    @property
    def any_diverges_neg(self) -> bool:
        return bool(self.diverging)

    @property
    def best(self) -> Optional[DropEntry]:
        return min(self.diverging, key=DropEntry.rank, default=None)


def find_dimension_drop(
    chain: StageChain,
    psi: DefinableSet,
    phi: Formula,
    a_ids: tuple[int, ...],
    b_ids: tuple[int, ...],
    *,
    window: int,
    bound: float,
    seed: int = 0,
) -> DropReport:
    """Compare the growth of phi(x; c) against the ambient set psi for every
    tuple c with the type of b_ids over a_ids in the final stage. Candidates
    whose parameters appear too late to cover the comparison window are
    skipped and listed. Raises ValueError if the base instance leaves psi at
    a stage that holds both sets' parameters (from the later of the two
    trends' starts), since the gap is only a dimension drop for subsets."""
    xs, ys, rest = roles(phi)
    if len(rest) != len(a_ids) or len(ys) != len(b_ids):
        raise ValueError("parameter ids do not fit phi's slots")
    if xs != psi.vars:
        raise ValueError("phi and psi must share solution variables")
    base = tuple(zip(rest, a_ids))

    def dset(c: tuple[int, ...]) -> DefinableSet:
        return DefinableSet(phi, xs, base + tuple(zip(ys, c)), psi.cap)

    t2 = trend(chain, psi)
    tb = trend(chain, dset(b_ids))
    start = max(tb.start_stage, t2.start_stage)
    pairs = zip(stage_solutions(chain, dset(b_ids), start), stage_solutions(chain, psi, start))
    for stage, (sols, inside) in enumerate(pairs, start):
        if not sols <= inside:
            raise ValueError(f"base instance leaves the ambient set at stage {stage}")

    final = chain.final
    window_start = t2.end_stage - window + 1
    entries: list[DropEntry] = []
    skipped: list[tuple[int, ...]] = []
    pool = _matching_tuples(final, a_ids, b_ids, seed)
    for c in pool:
        if chain.stage_of(a_ids + c) > window_start:  # trend's own start
            skipped.append(c)
            continue
        entries.append(DropEntry(c, dim_compare(trend(chain, dset(c)), t2, window, bound)))
    return DropReport(t2, tb, len(pool), tuple(skipped), tuple(entries))


# ---------------------------------------------------------------------------
# covering bound


def covering_bound(K: int, k: int) -> int:
    """Least L such that every family of L large subsets of a K-coverable
    set has k members with a common point: L = (k - 1) K + 1."""
    if K < 1 or k < 1:
        raise ValueError("need K >= 1 and k >= 1")
    return (k - 1) * K + 1


def _family_has_k_sharing(family: list[tuple[int, ...]], k: int) -> bool:
    mult: dict[int, int] = {}
    for s in family:
        for p in s:
            mult[p] = mult.get(p, 0) + 1
    return bool(mult) and max(mult.values()) >= k


@dataclass(frozen=True)
class CoveringReport:
    """Evidence that the covering bound holds on a ground set of s_size
    points split into K parts: counting certificate, a literal enumeration
    when small enough, else seeded random families (none after an
    enumeration), and the tight family one below the bound when K divides
    s_size. counterexample is the first enumerated or sampled family of L
    members with no point in k of them."""

    s_size: int
    K: int
    k: int
    m: int
    L: int
    max_family_without_sharing: int
    counterexample: Optional[tuple[tuple[int, ...], ...]]
    literal_checked: int
    samples_checked: int
    sharp_family: Optional[tuple[tuple[int, ...], ...]]
    sharp_family_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.max_family_without_sharing < self.L
            and self.counterexample is None
            and self.sharp_family_ok
        )


def covering_check(s_size: int, K: int, k: int) -> CoveringReport:
    """Verify the covering bound on {0, .., s_size - 1} with part size
    m = ceil(s_size / K).

    The counting certificate: a family in which no point lies in k members
    has at most (k - 1) s_size incidences, so at most
    floor((k - 1) s_size / m) members, always fewer than L, since K m >=
    s_size gives L m = (k - 1) K m + m > (k - 1) s_size. The literal
    enumeration, when the multiset space is small, re-checks the statement
    with no reduction at all (a counterexample family of larger subsets
    restricts to one of exact size m, so size m is enough); random families,
    seeded 0, probe the larger spaces in its place, since after a full
    enumeration they could only draw families it already checked."""
    if s_size < 1:
        raise ValueError("need at least one point")
    L = covering_bound(K, k)
    m = -(-s_size // K)
    max_family = (k - 1) * s_size // m

    n_subsets = math.comb(s_size, m)
    literal_checked = samples_checked = 0
    if math.comb(n_subsets + L - 1, L) <= _LITERAL_CAP:
        all_subsets = list(itertools.combinations(range(s_size), m))
        for fam in itertools.combinations_with_replacement(all_subsets, L):
            if not _family_has_k_sharing(list(fam), k):
                return CoveringReport(
                    s_size, K, k, m, L, max_family, tuple(fam), literal_checked,
                    0, None, False,
                )
            literal_checked += 1
    else:
        rng = random.Random(0)
        for _ in range(_SAMPLES):
            fam = [tuple(sorted(rng.sample(range(s_size), m))) for _ in range(L)]
            if not _family_has_k_sharing(fam, k):
                return CoveringReport(
                    s_size, K, k, m, L, max_family, tuple(fam), literal_checked,
                    samples_checked, None, False,
                )
            samples_checked += 1

    sharp: Optional[tuple[tuple[int, ...], ...]] = None
    sharp_ok = True
    if s_size % K == 0:
        block = s_size // K
        parts = [tuple(range(i * block, (i + 1) * block)) for i in range(K)]
        sharp = tuple(p for p in parts for _ in range(k - 1))
        sharp_ok = len(sharp) == L - 1 and not _family_has_k_sharing(list(sharp), k)

    return CoveringReport(
        s_size, K, k, m, L, max_family, None, literal_checked, samples_checked,
        sharp, sharp_ok,
    )
