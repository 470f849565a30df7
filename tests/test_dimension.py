"""Count trends, the log-gap comparator, exact measures, and the
quasi-dimension identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelsat.dimension import (
    BOUNDED,
    DIVERGES_NEG,
    DIVERGES_POS,
    INCONCLUSIVE,
    DimTrend,
    dim_compare,
    export_trend_csv,
    mu,
    product_set,
    quasi_axiom_report,
    read_trend_csv,
    trend,
)
from levelsat.construction import build_chain
from levelsat.dividing import find_dimension_drop
from levelsat.evaluator import DefinableSet, count, solutions
from levelsat.formula import And, Eq, Exists, Not, Or, RelAtom, fin, free_vars, omega_plus, parse
from levelsat.theory import PLUGINS, get_plugin

from test_formula import _formulas

EQUIV = get_plugin("generic_equivalence")
ESIG = EQUIV.signature
OMEGA = omega_plus(0)
LEVELS = (fin(0), fin(1), fin(2), OMEGA, omega_plus(1), omega_plus(2))

AMBIENT = DefinableSet(parse("x0 = x0", ESIG), ("x0",), (), OMEGA)
CLASS_B = DefinableSet(parse("E(x0, y0)", ESIG), ("x0",), (("y0", 3),), OMEGA)
AVOID_B = DefinableSet(parse("!E(x0, y0)", ESIG), ("x0",), (("y0", 3),), OMEGA)
NOTHING = DefinableSet(parse("!(x0 = x0)", ESIG), ("x0",), (), OMEGA)
LONELY = DefinableSet(
    parse("!(exists y0 in omega. E(x0, y0) & !(y0 = x0))", ESIG), ("x0",), (), OMEGA
)
PAIRED = DefinableSet(parse("exists y0. E(x0, y0) & !(y0 = x0)", ESIG), ("x0",), (), OMEGA)


def _flat(counts, start=0):
    return DimTrend("synthetic", start, tuple(counts))


# -- trend ---------------------------------------------------------------------


def test_full_set_trend_counts_v_omega(equiv30):
    t = trend(equiv30, AMBIENT)
    assert t.start_stage == 0
    for n, M in enumerate(equiv30.stages):
        assert t.count_at(n) == len(M.v_ids(OMEGA))


def test_trend_starts_when_parameters_exist(equiv30):
    t = trend(equiv30, CLASS_B)
    assert t.start_stage == 8  # the first element at level fin1 enters here
    assert 3 in equiv30.stages[8].universe
    assert 3 not in equiv30.stages[7].universe


def test_trend_of_unsatisfiable_set_is_all_zero(equiv30):
    t = trend(equiv30, NOTHING)
    assert set(t.counts) == {0}
    assert t.log_count_at(t.end_stage) is None


def test_trend_missing_parameter_rejected(equiv30):
    ghost = DefinableSet(parse("E(x0, y0)", ESIG), ("x0",), (("y0", 9999),), None)
    with pytest.raises(ValueError):
        trend(equiv30, ghost)


def test_capped_trends_never_decrease(equiv30):
    for dset in (AMBIENT, CLASS_B, AVOID_B):
        t = trend(equiv30, dset)
        assert all(a <= b for a, b in zip(t.counts, t.counts[1:]))


def _recount(chain, dset):
    """The per-stage reference: the first stage whose universe holds every
    parameter, and a search of each stage from there."""
    ids = [e for _, e in dset.params]
    start = next(i for i, M in enumerate(chain.stages) if all(e in M for e in ids))
    return start, tuple(len(solutions(M, dset)) for M in chain.stages[start:])


def test_quantified_trends_are_counted_per_stage(equiv30):
    """lonely loses solutions as partners arrive, so no stage_of of its
    solutions could count it; both sets are searched at each stage."""
    lonely = trend(equiv30, LONELY)
    assert lonely.counts == (1,) * 4 + (0,) * 8 + (8,) * 16 + (0,) * 3
    paired = trend(equiv30, PAIRED)
    assert (paired.counts[0], paired.counts[-1]) == (0, 35)
    for t, dset in ((lonely, LONELY), (paired, PAIRED)):
        assert (t.start_stage, t.counts) == _recount(equiv30, dset)


@pytest.fixture(scope="module", params=[*sorted(PLUGINS), "equiv30", "rado30"])
def any_chain(request, chains12):
    """Every bundled 12-stage chain, and the 30-stage equivalence and graph
    chains."""
    return chains12.get(request.param) or request.getfixturevalue(request.param)


def _recast(f, rel, cap):
    """f with each E atom over rel (an equality when rel is None) and each
    exists capped at cap."""
    if isinstance(f, RelAtom):
        return Eq(*f.args) if rel is None else RelAtom(rel, f.args)
    if isinstance(f, Not):
        return Not(_recast(f.body, rel, cap))
    if isinstance(f, (And, Or)):
        return type(f)(_recast(f.left, rel, cap), _recast(f.right, rel, cap))
    if isinstance(f, Exists):
        return Exists(f.bound, _recast(f.body, rel, cap), cap)
    return f


@settings(max_examples=80, deadline=None)
@given(_formulas(), st.data())
def test_trend_matches_the_per_stage_recount(any_chain, f, data):
    """Quantifier-free sets are read from final's stage ends and sets with
    exists per stage; both must equal a search of every stage. Caps keep
    the searches of the 30-stage chains to at most 45 elements."""
    M = any_chain.final
    caps = [c for c in (None, *LEVELS) if len(M.v_ids(c)) <= 45]
    rels = M.signature.names()
    f = _recast(f, rels[0] if rels else None, data.draw(st.sampled_from(caps)))
    order = data.draw(st.permutations(sorted(free_vars(f)) + ["x9"]))
    n_x = data.draw(st.integers(0, 2 if any_chain.n_stages <= 12 else 1))
    xs, rest = tuple(order[:n_x]), order[n_x:]
    params = tuple((v, data.draw(st.sampled_from(M.universe))) for v in rest)
    dset = DefinableSet(f, xs, params, data.draw(st.sampled_from(caps)))
    t = trend(any_chain, dset)
    assert (t.start_stage, t.counts) == _recount(any_chain, dset)


def test_stamped_reads_leave_the_replay_unbuilt():
    chain = build_chain(EQUIV, 12)
    trend(chain, AMBIENT)
    trend(chain, CLASS_B)
    find_dimension_drop(
        chain, AMBIENT, parse("E(x0, y0)", ESIG), (), (3,), window=10, bound=2.0
    )
    assert "stages" not in vars(chain)
    trend(chain, LONELY)
    assert "stages" in vars(chain)


# -- dim_compare ----------------------------------------------------------------


def test_identical_trends_bounded(equiv30):
    t = trend(equiv30, AMBIENT)
    res = dim_compare(t, t, window=10, bound=2.0)
    assert res.verdict == BOUNDED
    assert all(d == 0.0 for d in res.ds)


def test_linear_vs_quadratic_diverges_neg():
    t1 = _flat([n for n in range(1, 31)])
    t2 = _flat([n * n for n in range(1, 31)])
    res = dim_compare(t1, t2, window=10, bound=2.0)
    assert res.verdict == DIVERGES_NEG
    swapped = dim_compare(t2, t1, window=10, bound=2.0)
    assert swapped.verdict == DIVERGES_POS


def test_empty_side_conventions():
    zero = _flat([0] * 20)
    small = _flat([5] * 20)
    assert dim_compare(zero, small, 10, 2.0).verdict == DIVERGES_NEG
    assert dim_compare(small, zero, 10, 2.0).verdict == DIVERGES_POS
    assert dim_compare(zero, zero, 10, 2.0).verdict == BOUNDED  # gaps all 0
    mixed1 = _flat([0, 5] * 10)
    mixed2 = _flat([5, 0] * 10)
    assert dim_compare(mixed1, mixed2, 10, 2.0).verdict == INCONCLUSIVE


def test_none_marks_empty_stages_never_a_float():
    zero = _flat([0] * 12)
    small = _flat([5] * 12)
    res = dim_compare(zero, small, 4, 2.0)
    assert all(d is None for d in res.ds)
    assert res.d_final is None


def test_comparator_input_validation():
    t = _flat([1] * 20)
    with pytest.raises(ValueError):
        dim_compare(t, t, window=1, bound=2.0)
    with pytest.raises(ValueError):
        dim_compare(t, _flat([1] * 19), window=5, bound=2.0)  # ends differ
    late = _flat([1] * 5, start=15)
    with pytest.raises(ValueError):
        dim_compare(late, t, window=10, bound=2.0)  # window not covered


_SWAP = {
    BOUNDED: BOUNDED,
    INCONCLUSIVE: INCONCLUSIVE,
    DIVERGES_NEG: DIVERGES_POS,
    DIVERGES_POS: DIVERGES_NEG,
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6),
    st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6),
)
def test_comparator_antisymmetric(c1, c2):
    t1, t2 = _flat(c1), _flat(c2)
    forward = dim_compare(t1, t2, window=4, bound=2.0)
    backward = dim_compare(t2, t1, window=4, bound=2.0)
    assert backward.verdict == _SWAP[forward.verdict]


def test_class_versus_ambient_diverges_neg(equiv30):
    t_class = trend(equiv30, CLASS_B)
    t_all = trend(equiv30, AMBIENT)
    res = dim_compare(t_class, t_all, window=10, bound=2.0)
    assert res.verdict == DIVERGES_NEG
    # the gap drops when the ambient set jumps from 27 to 35 at stage 28
    assert res.ds[0] == pytest.approx(math.log(3) - math.log(27))
    assert res.d_final == pytest.approx(math.log(3) - math.log(35))


# -- measures ------------------------------------------------------------------------


def test_mu_identity_and_zero(equiv30):
    M = equiv30.final
    assert mu(M, AMBIENT, AMBIENT) == 1
    assert mu(M, AMBIENT, NOTHING) == 0
    with pytest.raises(ValueError):
        mu(M, NOTHING, AMBIENT)


def test_mu_class_of_b_exact(equiv30):
    M = equiv30.final
    assert mu(M, AMBIENT, CLASS_B) == Fraction(3, 35)
    assert mu(M, AMBIENT, AVOID_B) == Fraction(32, 35)


def test_mu_complement_control_approaches_one(iset30):
    sig = get_plugin("infinite_set").signature
    M = iset30.final
    amb = DefinableSet(parse("x0 = x0", sig), ("x0",), (), OMEGA)
    b = min(e for e in M.universe if M.level_of(e) == fin(1))
    avoid = DefinableSet(parse("!(x0 = y0)", sig), ("x0",), (("y0", b),), OMEGA)
    c = count(M, amb)
    assert mu(M, amb, avoid) == Fraction(c - 1, c)


# -- products ------------------------------------------------------------------------


def test_product_counts_multiply(equiv30):
    rho = product_set(CLASS_B, AVOID_B)
    for M in equiv30.stages[8::7]:
        assert count(M, rho) == count(M, CLASS_B) * count(M, AVOID_B)


def test_product_requires_matching_caps():
    uncapped = DefinableSet(parse("x0 = x0", ESIG), ("x0",))
    with pytest.raises(ValueError):
        product_set(AMBIENT, uncapped)


# -- quasi-dimension identities ----------------------------------------------------------


def test_quasi_report_clean_on_real_sets(equiv30):
    report = quasi_axiom_report(equiv30, [AMBIENT, CLASS_B, AVOID_B])
    assert report.ok
    assert report.n_sets == 3
    assert report.union_pairs_checked == 3
    assert report.start_stage == 8


def test_union_of_set_with_itself(equiv30):
    report = quasi_axiom_report(equiv30, [CLASS_B, CLASS_B])
    assert report.ok
    M = equiv30.final
    a = set(solutions(M, CLASS_B))
    assert len(a | a) == len(a)


def test_disjoint_union_hits_upper_bound(equiv30):
    report = quasi_axiom_report(equiv30, [CLASS_B, AVOID_B])
    assert report.ok
    M = equiv30.final
    a, b = set(solutions(M, CLASS_B)), set(solutions(M, AVOID_B))
    assert not a & b
    assert len(a | b) == len(a) + len(b) == count(M, AMBIENT)


def test_fibering_a_product_by_its_second_coordinate(equiv30):
    rho = product_set(CLASS_B, AVOID_B)
    assert rho.vars == ("x0", "x0_r")  # second factor renamed apart
    base = DefinableSet(parse("!E(x1, y1)", ESIG), ("x1",), (("y1", 3),), OMEGA)
    report = quasi_axiom_report(equiv30, [rho], fibered=(Eq("x0_r", "x1"), base))
    assert report.ok and report.fiber_checked


def test_quasi_report_validation(equiv30):
    other_vars = DefinableSet(parse("x1 = x1", ESIG), ("x1",), (), OMEGA)
    with pytest.raises(ValueError):
        quasi_axiom_report(equiv30, [AMBIENT, other_vars])
    with pytest.raises(ValueError):
        quasi_axiom_report(equiv30, [])


# -- CSV -----------------------------------------------------------------------------


def test_trend_csv_round_trip(equiv30):
    t = trend(equiv30, CLASS_B)
    text = export_trend_csv(t)
    rows = read_trend_csv(text)
    assert [r[0] for r in rows] == list(range(t.start_stage, t.end_stage + 1))
    assert [r[1] for r in rows] == list(t.counts)
    for stage, c, log in rows:
        if c:
            assert log == pytest.approx(math.log(c))
        else:
            assert log is None


def test_trend_csv_marks_empty_stages(equiv30):
    text = export_trend_csv(trend(equiv30, NOTHING))
    assert "-inf" in text
    rows = read_trend_csv(text)
    assert all(log is None for _, _, log in rows)
