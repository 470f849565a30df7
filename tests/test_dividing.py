"""Dividing certificates, the drop survey, and the covering bound."""

import itertools
import random

import pytest

from levelsat import dividing
from levelsat.dimension import BOUNDED, DIVERGES_NEG, INCONCLUSIVE, trend
from levelsat.dividing import (
    DropEntry,
    certify_dividing,
    covering_bound,
    covering_check,
    find_dimension_drop,
)
from levelsat.evaluator import DefinableSet, diag_key, qf_type_equal
from levelsat.formula import fin, omega_plus, parse, roles
from levelsat.structures import ExtensionDelta, FinStructure, apply_delta
from levelsat.theory import PLUGINS, get_plugin

from dividing_reference import reference_certify

EQUIV = get_plugin("generic_equivalence")
RADO = get_plugin("random_graph")
ISET = get_plugin("infinite_set")
OMEGA = omega_plus(0)

E_PHI = parse("E(x0, y0)", EQUIV.signature)
# the comparator every bundled config uses
COMPARATOR = {"window": 10, "bound": 2.0}


def _ambient(sig):
    return DefinableSet(parse("x0 = x0", sig), ("x0",), (), OMEGA)


# -- covering bound -------------------------------------------------------------


def test_covering_bound_values():
    assert covering_bound(1, 2) == 2
    assert covering_bound(2, 2) == 3
    assert covering_bound(3, 3) == 7
    with pytest.raises(ValueError):
        covering_bound(0, 2)


def test_covering_bound_monotone():
    for K in range(1, 6):
        for k in range(1, 6):
            assert covering_bound(K + 1, k) >= covering_bound(K, k)
            assert covering_bound(K, k + 1) > covering_bound(K, k)


def test_covering_certificate_inequality():
    """L ceil(s / K) > (k - 1) s: L subsets of ceil(s / K) points each need
    more incidences than s points can hold at k - 1 apiece."""
    for s in range(1, 61):
        for K in range(1, s + 1):
            m = -(-s // K)
            for k in range(1, 9):
                assert covering_bound(K, k) * m > (k - 1) * s, (s, K, k)


def test_covering_check_samples_only_what_it_cannot_enumerate():
    """Random families are drawn only where the literal enumeration is too
    large: after a full enumeration they could only re-check its families."""
    for K in range(1, 5):
        for k in range(1, 5):
            for s in range(1, 13):
                rep = covering_check(s, K, k)
                expected = 0 if rep.literal_checked > 0 else dividing._SAMPLES
                assert rep.samples_checked == expected, (s, K, k)


def test_covering_check_small_sharp():
    rep = covering_check(4, 2, 2)
    assert rep.ok
    assert rep.m == 2 and rep.L == 3
    assert rep.counterexample is None
    assert rep.literal_checked > 0  # small enough for the raw enumeration
    assert rep.sharp_family is not None and len(rep.sharp_family) == rep.L - 1


def test_covering_check_three_parts():
    rep = covering_check(6, 3, 2)
    assert rep.ok
    assert rep.L == 4 and rep.m == 2
    assert rep.max_family_without_sharing < rep.L


def test_covering_check_singletons_pigeonhole():
    rep = covering_check(5, 5, 2)
    assert rep.ok
    assert rep.m == 1 and rep.L == 6
    assert rep.sharp_family == ((0,), (1,), (2,), (3,), (4,))


# -- certify_dividing -----------------------------------------------------------


def test_certificate_on_equivalence_chain(equiv30):
    w = certify_dividing(EQUIV, equiv30, E_PHI, (), (3,), k=2, L=3)
    assert w is not None
    assert w.instances == ((0,), (4,), (5,))
    assert w.grown == 0
    assert all(w.type_confirmations)
    assert w.confirmations == ((0, 1), (0, 2), (1, 2))
    assert w.structure is equiv30.final


def test_certificate_survives_extension(equiv30):
    w = certify_dividing(EQUIV, equiv30, E_PHI, (), (3,), k=2, L=3)
    M = w.structure
    new = max(M.universe) + 1
    bigger = apply_delta(
        M, ExtensionDelta(((new, fin(9)),), (("E", (new, new)),))
    )
    assert EQUIV.validate_t_forall(bigger) == []
    for i, j in w.confirmations:
        cons = [
            (E_PHI, {"y0": w.instances[i][0]}),
            (E_PHI, {"y0": w.instances[j][0]}),
        ]
        assert not EQUIV.jointly_realizable(bigger, ("x0",), cons)
    assert all(qf_type_equal(bigger, c, w.instances[0]) for c in w.instances)


def test_k1_realizable_gives_none(equiv30):
    assert certify_dividing(EQUIV, equiv30, E_PHI, (), (3,), k=1, L=1) is None


def test_k1_unrealizable_gives_singleton_family(equiv30):
    phi = parse("E(x0, y0) & !(x0 = x0)", EQUIV.signature)
    w = certify_dividing(EQUIV, equiv30, phi, (), (3,), k=1, L=1)
    assert w is not None
    assert len(w.instances) == 1
    assert w.confirmations == ((0,),)


@pytest.mark.parametrize(
    "text, b, L, grown, last, size",
    [
        ("E(x0, y0)", (1,), 40, 23, (50,), 51),
        ("E(x0, y0) & !(x0 = y1)", (1, 2), 30, 21, (60, 61), 62),
    ],
)
def test_certificate_grows_fresh_instances(chains12, text, b, L, grown, last, size):
    """The greedy pass runs out of instances on the 12-stage chain, so the
    oracle grows the rest, each a fresh copy of b's diagram apart from the
    family so far."""
    chain = chains12["generic_equivalence"]
    w = certify_dividing(EQUIV, chain, parse(text, EQUIV.signature), (), b, k=2, L=L)
    assert w is not None
    assert w.grown == grown
    assert len(w.instances) == L and w.instances[-1] == last
    assert w.structure.size() == size
    assert all(w.type_confirmations)
    assert EQUIV.validate_t_forall(w.structure) == []


def test_no_certificate_on_random_graph(rado30):
    phi = parse("R(x0, y0)", RADO.signature)
    b = min(e for e in rado30.final.universe if rado30.final.level_of(e) == fin(1))
    assert certify_dividing(RADO, rado30, phi, (), (b,), k=2, L=3) is None


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the certificate checks finite k-inconsistency of "
    "instances that may share elements, not dividing",
)
@pytest.mark.parametrize("k, L", [(2, 3), (3, 5)])
def test_henson_split_pair_is_not_certified(henson30, k, L):
    """Over a non-edge b, R(x0, y0) & !R(x0, y1) does not divide in the
    Henson graph: in an indiscernible sequence of b's type the b0's are
    pairwise non-adjacent and no b0 is a b1, so some vertex is joined to
    every b0 and to no b1. The search certifies it all the same, with the
    family ((0, 4), (1, 4), (2, 1)) at (2, 3), whose instances share 1 and 4."""
    plugin = get_plugin("henson_triangle_free")
    phi = parse("R(x0, y0) & !R(x0, y1)", plugin.signature)
    assert certify_dividing(plugin, henson30, phi, (), (0, 4), k, L) is None


def test_certify_input_validation(equiv30):
    with pytest.raises(ValueError):
        certify_dividing(EQUIV, equiv30, E_PHI, (0,), (3,), k=2, L=3)
    with pytest.raises(ValueError):
        certify_dividing(EQUIV, equiv30, E_PHI, (), (3, 4), k=2, L=3)
    with pytest.raises(ValueError):
        certify_dividing(EQUIV, equiv30, E_PHI, (), (3,), k=0, L=3)
    with pytest.raises(ValueError):
        certify_dividing(EQUIV, equiv30, E_PHI, (), (3,), k=3, L=2)
    with pytest.raises(ValueError):
        certify_dividing(EQUIV, equiv30, parse("E(y0, y1)", EQUIV.signature), (), (3, 3), k=2, L=3)


# -- one oracle call per atomic diagram ---------------------------------------------

# per plugin: phis run in this order on one chain in one process, so a memo
# that outlived its call would hand one phi's answers to the next; z0 is a
# fixed parameter, bound to a non-empty a
DIFF_PHIS = {
    "infinite_set": ("x0 = y0", "!(x0 = y0)", "x0 = y0 & !(x0 = z0)", "!(x0 = y0) & !(y1 = y0)"),
    "random_graph": ("R(x0, y0)", "!R(x0, y0)", "R(x0, y0) & R(x0, z0)", "R(x0, y0) & !R(x0, y1)"),
    "henson_triangle_free": (
        "R(x0, y0)", "!R(x0, y0)", "R(x0, y0) & R(x0, z0)", "R(x0, y0) & R(x0, y1)",
    ),
    "generic_equivalence": (
        "E(x0, y0)", "!E(x0, y0)", "E(x0, y0) & !E(x0, z0)", "E(x0, y0) & !(x0 = y1)",
    ),
}


def _certificate(w):
    if w is None:
        return None
    fields = (w.formula_text, w.k, w.a_ids, w.instances, w.type_confirmations)
    return fields + (w.confirmations, w.grown, w.structure.to_doc())


def _assert_matches_reference(plugin, chain, texts, cases):
    """certify_dividing equals the per-subset reference on every phi, anchor
    and k; returns the outcomes seen (None, or the growth count)."""
    M = chain.final
    fin1 = min(e for e in M.universe if M.level_of(e) == fin(1))
    anchors = sorted({M.universe[0], fin1, M.universe[len(M.universe) // 2]})
    seen = set()
    for text in texts:
        phi = parse(text, plugin.signature)
        _, ys, rest = roles(phi)
        a = (M.universe[-1],) * len(rest)
        for b0, (k, L) in itertools.product(anchors, cases):
            b = (b0, M.universe[1])[: len(ys)]
            got = certify_dividing(plugin, chain, phi, a, b, k=k, L=L)
            want = reference_certify(plugin, chain, phi, a, b, k, L)
            assert _certificate(got) == _certificate(want), (text, a, b, k, L)
            seen.add(None if got is None else got.grown)
    return seen


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_certify_matches_the_per_subset_reference(chains12, name):
    """Asking the oracle once per atomic diagram changes no certificate:
    family, confirmations, growth and grown structure equal the reference's,
    which asks once per k-subset."""
    cases = [(k, k + 2) for k in (1, 2, 3, 4)]
    seen = _assert_matches_reference(get_plugin(name), chains12[name], DIFF_PHIS[name], cases)
    assert None in seen and 0 in seen


def test_certify_matches_the_reference_while_growing(chains12):
    """Families that outgrow the 12-stage pool: the memo carries answers
    from the final stage across the growth steps."""
    name = "generic_equivalence"
    seen = _assert_matches_reference(EQUIV, chains12[name], DIFF_PHIS[name], [(2, 20)])
    assert max(s for s in seen if s is not None) > 0


@pytest.mark.parametrize("name", ["generic_equivalence", "random_graph"])
def test_certify_matches_the_reference_at_30_stages(equiv30, rado30, name):
    chain = {"generic_equivalence": equiv30, "random_graph": rado30}[name]
    # one instance slot: a two-slot pool of the 30-stage graph is sampled
    # down from about 300,000 pairs, 1.4 s per call
    texts = [t for t in DIFF_PHIS[name] if "y1" not in t]
    cases = [(k, k + 2) for k in (1, 2, 3, 4)]
    assert _assert_matches_reference(get_plugin(name), chain, texts, cases)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_oracle_call_per_atomic_diagram(rado30, monkeypatch, k):
    """The benchmark's random_graph experiments: the per-subset search asks
    the oracle hundreds of times about a handful of diagrams."""
    calls = []
    joint = RADO.jointly_realizable

    def counted(*args):
        calls.append(args)
        return joint(*args)

    monkeypatch.setattr(RADO, "jointly_realizable", counted)
    phi = parse("R(x0, y0)", RADO.signature)
    M = rado30.final
    b = min(e for e in M.universe if M.level_of(e) == fin(1))
    assert certify_dividing(RADO, rado30, phi, (), (b,), k=k, L=8) is None
    assert 1 <= len(calls) <= 4
    keys = {diag_key(M_now, tuple(p["y0"] for _, p in cons)) for M_now, _, cons in calls}
    assert len(keys) == len(calls)


# -- find_dimension_drop ----------------------------------------------------------


def test_drop_survey_on_equivalence_chain(equiv30):
    rep = find_dimension_drop(equiv30, _ambient(EQUIV.signature), E_PHI, (), (3,), **COMPARATOR)
    assert rep.candidates_total == 92
    assert len(rep.skipped_late) == 32
    verdicts = [e.result.verdict for e in rep.entries]
    assert verdicts.count(DIVERGES_NEG) == 36
    assert verdicts.count(INCONCLUSIVE) == 24
    assert len(rep.entries) == 60
    assert rep.any_diverges_neg


def test_drop_ranking_prefers_empty_window_stages(equiv30):
    rep = find_dimension_drop(equiv30, _ambient(EQUIV.signature), E_PHI, (), (3,), **COMPARATOR)
    best = rep.best
    assert best is not None
    assert best.instance == (4,)
    assert best.rank() == (0, 0.0)
    assert None in best.result.ds  # the class is empty below the cap early on
    finite = [e for e in rep.diverging if None not in e.result.ds]
    assert all(best.rank() <= e.rank() for e in finite)


def test_drop_requires_subset(equiv30):
    psi = DefinableSet(E_PHI, ("x0",), (("y0", 3),), OMEGA)
    phi = parse("x0 = x0 & y0 = y0", EQUIV.signature)
    with pytest.raises(ValueError):
        find_dimension_drop(equiv30, psi, phi, (), (4,), **COMPARATOR)


def test_base_check_starts_when_psi_exists(equiv30):
    """psi's parameter 3 is born at stage 8, after the base instance's 2
    (stage 4). The base is checked from stage 8, where both sets exist, and
    lies inside psi there."""
    psi = DefinableSet(parse("E(x0, z0)", EQUIV.signature), ("x0",), (("z0", 3),), OMEGA)
    assert (equiv30.stage_of([2]), equiv30.stage_of([3])) == (4, 8)
    rep = find_dimension_drop(equiv30, psi, E_PHI, (), (2,), **COMPARATOR)
    assert (rep.base_trend.start_stage, rep.psi_trend.start_stage) == (4, 8)


def test_drop_trivial_when_phi_is_everything(equiv30):
    phi = parse("x0 = x0 & y0 = y0", EQUIV.signature)
    rep = find_dimension_drop(equiv30, _ambient(EQUIV.signature), phi, (), (3,), **COMPARATOR)
    assert not rep.any_diverges_neg
    assert rep.best is None
    assert all(e.result.verdict == BOUNDED for e in rep.entries)
    assert all(d == 0.0 for e in rep.entries for d in e.result.ds)


def test_no_drop_on_infinite_set_control(iset30):
    phi = parse("!(x0 = y0)", ISET.signature)
    b = min(e for e in iset30.final.universe if iset30.final.level_of(e) == fin(1))
    rep = find_dimension_drop(iset30, _ambient(ISET.signature), phi, (), (b,), **COMPARATOR)
    assert rep.entries
    assert all(e.result.verdict == BOUNDED for e in rep.entries)


def test_random_graph_drops_are_never_certified(rado30):
    """The survey is a detector, not a verifier: thin neighborhoods in the
    graph chain can show a falling gap, but no instance family is actually
    k-inconsistent, so certification refuses every flagged candidate."""
    phi = parse("R(x0, y0)", RADO.signature)
    b = min(e for e in rado30.final.universe if rado30.final.level_of(e) == fin(1))
    rep = find_dimension_drop(rado30, _ambient(RADO.signature), phi, (), (b,), **COMPARATOR)
    assert rep.entries
    flagged = rep.best
    assert flagged is None or certify_dividing(
        RADO, rado30, phi, (), flagged.instance, k=2, L=3
    ) is None


# chain, phi, (DivergesNeg, compared) at caps omega, omega+2 and omega+3,
# late candidates at cap omega, certified at every tried (k, L)
NOISE = [
    ("equiv30", "E(x0, y0)", ((36, 60), (12, 60), (4, 60)), 32, True),
    ("equiv60", "E(x0, y0)", ((24, 116), (0, 116), (0, 116)), 0, True),
    ("rado30", "R(x0, y0)", ((15, 45), (45, 45), (45, 45)), 512, False),
    ("henson30", "R(x0, y0)", ((13, 32), (32, 32), (32, 32)), 205, False),
    ("iset30", "!(x0 = y0)", ((0, 4), (0, 4), (0, 4)), 0, False),
]


@pytest.mark.parametrize(
    "source, text, counts, late, certified", NOISE, ids=[row[0] for row in NOISE]
)
def test_drop_survey_noise_is_pinned(request, source, text, counts, late, certified):
    """The survey's DivergesNeg counts for b the first fin1 element against
    the ambient set, pinned so that a change that moves the noise shows. The
    graph controls drop without dividing, so the certificate separates, not
    the drop; and every certified row drops at cap omega."""
    chain = request.getfixturevalue(source)
    plugin = get_plugin(chain.plugin_name)
    M = chain.final
    b = min(e for e in M.universe if M.level_of(e) == fin(1))
    phi = parse(text, plugin.signature)
    reports = [
        find_dimension_drop(
            chain,
            DefinableSet(parse("x0 = x0", plugin.signature), ("x0",), (), omega_plus(n)),
            phi, (), (b,), window=10, bound=2.0, seed=0,
        )
        for n in (0, 2, 3)
    ]
    assert tuple((len(r.diverging), len(r.entries)) for r in reports) == counts
    assert len(reports[0].skipped_late) == late
    tried = [certify_dividing(plugin, chain, phi, (), (b,), k, L) is not None
             for k, L in ((2, 3), (3, 5), (4, 8))]
    assert tried == [certified] * 3
    assert reports[0].any_diverges_neg or not certified


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_drop_survey_skips_exactly_the_late_trends(chains12, name):
    """A candidate is skipped exactly when its trend starts after the
    window opens. The windows open at the first and the last arrival stage
    strictly between 0 and the final stage, so some candidate is born
    exactly at the window start."""
    plugin, chain = get_plugin(name), chains12[name]
    sig = plugin.signature
    phi = parse("x0 = y0" if not sig.relations else f"{sig.names()[0]}(x0, y0)", sig)
    psi = _ambient(sig)
    b = min(e for e in chain.final.universe if chain.final.level_of(e) == fin(1))
    births = sorted({chain.stage_of([e]) for e in chain.final.universe} - {0, chain.n_stages})
    assert births
    for start in (births[0], births[-1]):
        window = chain.n_stages - start + 1
        rep = find_dimension_drop(chain, psi, phi, (), (b,), window=window, bound=2.0)
        pool = sorted(rep.skipped_late + tuple(e.instance for e in rep.entries))
        assert len(pool) == rep.candidates_total
        late = {
            c for c in pool
            if trend(chain, DefinableSet(phi, ("x0",), (("y0", c[0]),), OMEGA)).start_stage > start
        }
        assert any(chain.stage_of(c[:1]) == start for c in pool)
        assert rep.skipped_late == tuple(c for c in pool if c in late)
        assert tuple(e.instance for e in rep.entries) == tuple(c for c in pool if c not in late)


# -- the pool of same-type tuples -------------------------------------------------


def _scratch_key(M, t):
    """A tuple's atomic diagram written out here, independent of the
    evaluator's enumeration: its equality pattern, then every relation
    atom over its positions."""
    eqs = [t[i] == t[j] for i, j in itertools.combinations(range(len(t)), 2)]
    rels = [
        M.has_fact(rel, tuple(t[p] for p in pos))
        for rel, ar in M.signature.relations
        for pos in itertools.product(range(len(t)), repeat=ar)
    ]
    return eqs, rels


def _scan(M, a_ids, b_ids, key):
    """The pool by brute force: every tuple of universe^|b| whose key over
    a_ids is b's, ascending."""
    target = key(M, a_ids + b_ids)
    return [
        c for c in itertools.product(M.universe, repeat=len(b_ids))
        if key(M, a_ids + c) == target
    ]


def _sampled(pool, b_ids, seed):
    """_matching_tuples' sampling rule, applied to a scanned pool."""
    if len(pool) <= dividing._MAX_POOL:
        return pool
    rng = random.Random(seed)
    keep = set(rng.sample(range(len(pool)), dividing._MAX_POOL - 1))
    keep.add(pool.index(b_ids))
    return [c for i, c in enumerate(pool) if i in keep]


def _random_structure(sig, rng, density=0.35):
    """A structure on a few scattered ids with random facts: the pool is a
    function of the facts alone, so no theory needs to hold."""
    ids = sorted(rng.sample(range(30), rng.randint(3, 7)))
    facts = [
        (rel, t)
        for rel, ar in sig.relations
        for t in itertools.product(ids, repeat=ar)
        if rng.random() < density
    ]
    return FinStructure(sig, tuple((e, fin(0)) for e in ids), tuple(facts))


def _pool_cases(M, rng):
    """(a, b) with |a| and |b| in {0, 1, 2}: random draws, which repeat
    ids often on so few elements, plus a b that repeats an id and a b
    that repeats a's first id. An empty b has the one candidate (); in the
    empty signature a one-element b over no parameters has an empty
    diagram, so every element is a candidate."""
    for na, nb in itertools.product(range(3), repeat=2):
        for _ in range(3):
            a = tuple(rng.choice(M.universe) for _ in range(na))
            yield a, tuple(rng.choice(M.universe) for _ in range(nb))
        if nb:
            e = rng.choice(M.universe)
            yield a, (e,) * nb
            if na:
                yield a, (a[0],) * nb


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_matching_tuples_agrees_with_the_product_scan(name):
    """The pool searched through the index equals the scan of every tuple
    by diag_key, order included, and diag_key's verdicts equal those of a
    key written out in the test."""
    rng = random.Random(f"pool-{name}")
    sig = get_plugin(name).signature
    for _ in range(6):
        M = _random_structure(sig, rng)
        for a, b in _pool_cases(M, rng):
            want = _scan(M, a, b, diag_key)
            assert want == _scan(M, a, b, _scratch_key), (a, b)
            assert dividing._matching_tuples(M, a, b, 0) == want, (a, b)


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_matching_tuples_samples_like_the_scan(name, monkeypatch):
    """Above _MAX_POOL the seeded sample of the searched pool is the
    sample of the scanned pool, and it keeps b."""
    monkeypatch.setattr(dividing, "_MAX_POOL", 4)
    rng = random.Random(f"sample-{name}")
    sig = get_plugin(name).signature
    sampled = 0
    for density in (0.0, 0.1, 0.35):
        M = _random_structure(sig, rng, density)
        for a, b in _pool_cases(M, rng):
            pool = _scan(M, a, b, diag_key)
            sampled += len(pool) > 4
            for seed in (0, 7):
                got = dividing._matching_tuples(M, a, b, seed)
                assert got == _sampled(pool, b, seed), (a, b, seed)
                assert b in got
    assert sampled
