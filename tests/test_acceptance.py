"""The acceptance gate: the package's headline claims checked end to end.

Each test covers one claim and records a single PASS/FAIL line (printed in
the terminal summary by conftest). Stated runtime ceilings are asserted
alongside the claim itself.
"""

import functools
import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from acceptance_log import record

import test_oracle_bruteforce as bf
from levelsat.construction import (
    build_chain,
    check_level_freeze,
    processed_axiom_levels,
    serialize_chain,
    strongly_satisfies,
    verify_axioms_on_levels,
)
from levelsat.dimension import BOUNDED, product_set, quasi_axiom_report
from levelsat.dividing import certify_dividing, covering_check, find_dimension_drop
from levelsat.evaluator import DefinableSet, count, qf_type_equal
from levelsat.formula import Eq, fin, omega_plus, parse, rename_vars
from levelsat.theory import PLUGINS, get_plugin

ROOT = Path(__file__).resolve().parent.parent
OMEGA = omega_plus(0)


def criterion(name):
    """Record one gate line for the wrapped test, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(**kwargs):
            try:
                detail = fn(**kwargs)
            except BaseException as e:
                record(name, False, str(e) or type(e).__name__)
                raise
            record(name, True, detail)

        return wrapper

    return deco


def _ambient(sig):
    return DefinableSet(parse("x0 = x0", sig), ("x0",), (), OMEGA)


def _first_at_fin1(M) -> int:
    return min(e for e in M.universe if M.level_of(e) == fin(1))


def _single_var_sets(plugin, final, rng, force_cap=None):
    """A pool of one-variable definable sets with seeded parameters."""
    sig = plugin.signature
    ids = sorted(final.universe)
    caps = [None, OMEGA, fin(3)]

    def cap():
        return force_cap if force_cap is not None else rng.choice(caps)

    out = [DefinableSet(parse("x0 = x0", sig), ("x0",), (), cap())]
    for _ in range(3):
        p = rng.choice(ids)
        out.append(
            DefinableSet(parse("!(x0 = y0)", sig), ("x0",), (("y0", p),), cap())
        )
        out.append(DefinableSet(parse("x0 = y0", sig), ("x0",), (("y0", p),), cap()))
    for rel, arity in sorted(sig.relations):
        if arity != 2:
            continue
        for _ in range(3):
            p = rng.choice(ids)
            out.append(
                DefinableSet(parse(f"{rel}(x0, y0)", sig), ("x0",), (("y0", p),), cap())
            )
            out.append(
                DefinableSet(
                    parse(f"!{rel}(x0, y0)", sig), ("x0",), (("y0", p),), cap()
                )
            )
    return out


@criterion("strong satisfaction after twelve stages")
def test_strong_satisfaction_all_plugins():
    parts = []
    for name in sorted(PLUGINS):
        plugin = get_plugin(name)
        t0 = time.monotonic()
        chain = build_chain(plugin, 12)
        M = chain.final
        for entry in chain.schedule[:12]:
            assert strongly_satisfies(plugin, M, entry), (name, entry.position)
        dt = time.monotonic() - t0
        assert dt < 60.0, f"{name} exceeded 60s ({dt:.1f}s)"
        parts.append(f"{name} {dt:.1f}s")
    return "12 obligations each, all witnessed one level up; " + ", ".join(parts)


@criterion("levels frozen while a stage runs")
def test_level_freeze(chains12, equiv30, iset30, rado30):
    chains = list(chains12.values()) + [equiv30, iset30, rado30]
    entries = 0
    for chain in chains:
        assert check_level_freeze(chain) == []
        for audit, M in zip(chain.audits, chain.stages[1:]):
            by_level = {}
            for ea in audit.entries:
                by_level.setdefault(ea.level, []).append(ea)
                entries += 1
                succ = ea.level.successor()
                for rec in ea.records:
                    assert all(M.level_of(e) == succ for e in rec.new_ids)
            for group in by_level.values():
                assert all(ea.v_size == group[0].v_size for ea in group)
    return f"{entries} audited entries across {len(chains)} chains, 0 violations"


@criterion("relativized axioms on every processed level")
def test_relativized_axioms(chains12):
    total = 0
    for name, chain in sorted(chains12.items()):
        plugin = get_plugin(name)
        pairs = processed_axiom_levels(plugin, chain)
        report = verify_axioms_on_levels(plugin, chain.final, pairs)
        assert report.ok, f"{name}: {report.failures[:3]}"
        total += len(report.checked)
    return f"{total} (axiom, level) pairs, 0 failures"


@criterion("product counts multiply exactly")
def test_product_additivity(chains12):
    checks = 0
    for name, chain in sorted(chains12.items()):
        plugin = get_plugin(name)
        rng = random.Random(20260819)
        pool = _single_var_sets(plugin, chain.final, rng)
        for _ in range(20):
            X = rng.choice(pool)
            Y = rng.choice([d for d in pool if d.cap == X.cap])
            rho = product_set(X, Y)
            for M in chain.stages:
                assert count(M, rho) == count(M, X) * count(M, Y), name
                checks += 1
    return f"20 seeded pairs per plugin, {checks} exact stage checks"


@criterion("union sandwich and fiber bound")
def test_quasi_dimension_identities(chains12):
    stage_checks = 0
    for name, chain in sorted(chains12.items()):
        plugin = get_plugin(name)
        rng = random.Random(97)
        pool = _single_var_sets(plugin, chain.final, rng, force_cap=OMEGA)
        report = quasi_axiom_report(chain, rng.sample(pool, 4))
        assert report.ok, f"{name}: {report.violations[:3]}"
        stage_checks += (report.end_stage - report.start_stage + 1) * (
            report.union_pairs_checked + report.n_sets
        )
        X, Y = rng.sample(pool, 2)
        rho = product_set(X, Y)
        base = DefinableSet(
            rename_vars(Y.formula, {"x0": "x1"}), ("x1",), Y.params, Y.cap
        )
        fibered = quasi_axiom_report(
            chain, [rho], fibered=(Eq(rho.vars[1], "x1"), base)
        )
        assert fibered.ok and fibered.fiber_checked, name
        stage_checks += fibered.end_stage - fibered.start_stage + 1
    return f"{stage_checks} exact per-stage checks, 0 violations"


@criterion("covering bound: counting certificate everywhere, literal enumeration where small")
def test_covering_bound_exhaustive():
    t0 = time.monotonic()
    reports = sharp = enumerated = 0
    for K in range(1, 5):
        for k in range(1, 5):
            for s in range(1, 13):
                rep = covering_check(s, K, k)
                assert rep.ok, (s, K, k)
                assert rep.L == (k - 1) * K + 1
                if s % K == 0:
                    assert rep.sharp_family is not None, (s, K, k)
                    sharp += 1
                reports += 1
                enumerated += rep.literal_checked > 0
    dt = time.monotonic() - t0
    assert dt < 300.0, f"exceeded 300s ({dt:.1f}s)"
    return (
        f"K,k in 1..4, sizes 1..12: {reports} reports ok ({enumerated} enumerated, "
        f"{reports - enumerated} sampled), {sharp} sharp families, {dt:.1f}s"
    )


@criterion("equivalence chain: dividing certified and the gap falls")
def test_dimension_drop_flagship():
    t0 = time.monotonic()
    plugin = get_plugin("generic_equivalence")
    chain = build_chain(plugin, 30)
    b = _first_at_fin1(chain.final)
    phi = parse("E(x0, y0)", plugin.signature)
    w = certify_dividing(plugin, chain, phi, (), (b,), k=2, L=3)
    assert w is not None, "no certificate found"
    assert len(w.instances) == 3
    assert all(qf_type_equal(w.structure, c, (b,)) for c in w.instances)
    rep = find_dimension_drop(
        chain, _ambient(plugin.signature), phi, (), (b,), window=10, bound=2.0
    )
    assert rep.any_diverges_neg, "no falling gap"
    dt = time.monotonic() - t0
    assert dt < 600.0, f"exceeded 600s ({dt:.1f}s)"
    return (
        f"k=2 L=3 family {[c[0] for c in w.instances]} confirmed, "
        f"{len(rep.diverging)} of {len(rep.entries)} candidates DivergesNeg, {dt:.1f}s"
    )


@criterion("controls: no false dividing signals")
def test_non_dividing_controls(iset30, rado30):
    iplug = get_plugin("infinite_set")
    rep = find_dimension_drop(
        iset30,
        _ambient(iplug.signature),
        parse("!(x0 = y0)", iplug.signature),
        (),
        (_first_at_fin1(iset30.final),),
        window=10,
        bound=2.0,
    )
    assert rep.entries, "no candidates compared"
    assert all(e.result.verdict == BOUNDED for e in rep.entries)

    rplug = get_plugin("random_graph")
    phi = parse("R(x0, y0)", rplug.signature)
    br = _first_at_fin1(rado30.final)
    refused = 0
    t0 = time.monotonic()
    for k in range(1, 5):
        for L in range(k, 9):
            assert certify_dividing(rplug, rado30, phi, (), (br,), k=k, L=L) is None, (
                k,
                L,
            )
            refused += 1
    dt = time.monotonic() - t0
    return (
        f"{len(rep.entries)} equality-theory candidates all Bounded; "
        f"{refused} (k, L) settings refused on the graph in {dt:.1f}s"
    )


@criterion("extension oracle matches brute force")
def test_oracle_brute_force_agreement():
    checked = 0
    for name in sorted(PLUGINS):
        plugin = get_plugin(name)
        pool = bf._formula_pool(plugin)
        for M in bf._structures_upto4(plugin):
            for phi, xs, ys in pool:
                for a_bar in itertools.product(M.universe, repeat=len(xs)):
                    bf._check_instance(plugin, M, phi, xs, ys, a_bar)
                    checked += 1
        rng = random.Random(7)
        for M in bf._random_structures(plugin):
            for phi, xs, ys in pool:
                if M.size() == 6 and len(ys) > 1:
                    continue
                tuples = list(itertools.product(M.universe, repeat=len(xs)))
                for a_bar in rng.sample(tuples, min(4, len(tuples))):
                    bf._check_instance(plugin, M, phi, xs, ys, a_bar)
                    checked += 1
    return f"{checked} instances: existence, minimal growth, soundness all agree"


@criterion("independent runs are bit-identical")
def test_determinism(tmp_path):
    for name in sorted(PLUGINS):
        plugin = get_plugin(name)
        assert serialize_chain(build_chain(plugin, 12)) == serialize_chain(
            build_chain(plugin, 12)
        ), name

    cfg = ROOT / "configs" / "equivalence_drop.yaml"
    dirs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        for cmd in (
            ["build", "--config", cfg, "--out-dir", d],
            [
                "divide",
                "--config", cfg,
                "--chain", d / "generic_equivalence.chain.json",
                "--out-dir", d,
            ],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "levelsat.cli", *map(str, cmd)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        dirs.append(d)
    files = (
        "generic_equivalence.chain.json",
        "generic_equivalence.audit.txt",
        "divide_report.json",
        "class_drop.psi.csv",
        "class_drop.phi.csv",
    )
    for fname in files:
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname
    return f"4 rebuilt chains and {len(files)} pipeline files byte-equal across processes"
