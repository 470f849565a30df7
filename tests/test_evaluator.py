"""Truth evaluation, definable sets, counting, and atomic-type equality."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelsat.evaluator import (
    DefinableSet,
    EvalError,
    _atoms,
    backtrack,
    count,
    diag_key,
    diagram,
    evaluate,
    find_witness,
    qf_type_equal,
    solutions,
    truth,
    witnessed,
)
from levelsat.formula import (
    And,
    Eq,
    Exists,
    Not,
    Or,
    RelAtom,
    Signature,
    conjoin,
    fin,
    free_vars,
    nnf,
    omega_plus,
    parse,
)
from levelsat.structures import ExtensionDelta, FinStructure, apply_delta
from levelsat.theory import PLUGINS

from test_formula import _formulas

SIG = Signature((("E", 2),))


def _graph(n_edges: tuple[tuple[int, int], ...], levels) -> FinStructure:
    facts = []
    for a, b in n_edges:
        facts.append(("E", (a, b)))
        facts.append(("E", (b, a)))
    return FinStructure(SIG, tuple(levels), tuple(facts))


# -- evaluate -------------------------------------------------------------------


def test_atom_lookup():
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(0))))
    f = parse("E(x0, x1)", SIG)
    assert evaluate(M, f, {"x0": 0, "x1": 1})
    assert not evaluate(M, f, {"x0": 0, "x1": 0})


def test_equality_reflexive():
    M = _graph((), ((0, fin(0)), (1, fin(3))))
    f = parse("x0 = x0", SIG)
    for e in M.universe:
        assert evaluate(M, f, {"x0": e})


def test_exists_false_without_neighbor():
    M = _graph((), ((0, fin(0)),))
    f = parse("exists y0. E(x0, y0)", SIG)
    assert not evaluate(M, f, {"x0": 0})


def test_exists_scans_universe():
    M = _graph(((0, 2),), ((0, fin(0)), (1, fin(0)), (2, omega_plus(1))))
    f = parse("exists y0. E(x0, y0)", SIG)
    assert evaluate(M, f, {"x0": 0})
    assert not evaluate(M, f, {"x0": 1})


def test_unbound_variable_raises():
    M = _graph((), ((0, fin(0)),))
    with pytest.raises(EvalError):
        evaluate(M, parse("E(x0, x1)", SIG), {"x0": 0})
    with pytest.raises(EvalError):
        evaluate(M, parse("x0 = x1", SIG), {"x1": 0})


def test_unbound_variable_in_a_later_branch_raises():
    # the first branch has hits, and the Or is searched branch by branch,
    # but x1 is a free variable of the whole formula
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(0))))
    f = parse("E(x0, y0) | E(y0, x1) | y0 = x0", SIG)
    with pytest.raises(EvalError, match=r"unbound variables \['x1'\]"):
        find_witness(M, f, {"x0": 0}, ("y0",), None)
    with pytest.raises(EvalError, match=r"unbound variables \['x1'\]"):
        solutions(M, DefinableSet(f, ("y0",), (("x0", 0),)))


# -- solutions / count ------------------------------------------------------------


def test_full_set_is_whole_universe():
    M = _graph((), ((0, fin(0)), (1, fin(1)), (2, omega_plus(0))))
    D = DefinableSet(parse("x0 = x0", SIG), ("x0",))
    assert solutions(M, D) == [(0,), (1,), (2,)]
    assert count(M, D) == 3


def test_contradiction_is_empty():
    M = _graph((), ((0, fin(0)), (1, fin(1))))
    D = DefinableSet(parse("x0 = x0 & !(x0 = x0)", SIG), ("x0",))
    assert solutions(M, D) == []
    assert count(M, D) == 0


def test_cap_excludes_high_level_neighbor():
    # b has two neighbors; the one above level omega is cut out by the cap
    M = _graph(
        ((0, 1), (0, 2)),
        ((0, fin(0)), (1, fin(1)), (2, omega_plus(2))),
    )
    D = DefinableSet(parse("E(x0, y0)", SIG), ("x0",), (("y0", 0),), omega_plus(0))
    assert solutions(M, D) == [(1,)]
    uncapped = DefinableSet(parse("E(x0, y0)", SIG), ("x0",), (("y0", 0),))
    assert solutions(M, uncapped) == [(1,), (2,)]


def test_cap_monotone():
    M = _graph(
        ((0, 1), (0, 2), (0, 3)),
        ((0, fin(0)), (1, fin(1)), (2, omega_plus(0)), (3, omega_plus(2))),
    )
    f = parse("E(x0, y0)", SIG)
    caps = [fin(0), fin(1), omega_plus(0), omega_plus(2), None]
    sols = [
        set(solutions(M, DefinableSet(f, ("x0",), (("y0", 0),), c))) for c in caps
    ]
    for earlier, later in zip(sols, sols[1:]):
        assert earlier <= later


def test_count_product_identity():
    M = _graph(((0, 1), (1, 2)), ((0, fin(0)), (1, fin(0)), (2, fin(1))))
    phi = DefinableSet(parse("E(x0, y0)", SIG), ("x0",), (("y0", 1),))
    psi = DefinableSet(parse("!(x1 = y1)", SIG), ("x1",), (("y1", 0),))
    rho = DefinableSet(
        parse("E(x0, y0) & !(x1 = y1)", SIG),
        ("x0", "x1"),
        (("y0", 1), ("y1", 0)),
    )
    assert count(M, rho) == count(M, phi) * count(M, psi)


def test_existential_truth_persists_under_extension():
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(1))))
    f = parse("exists y0. E(x0, y0)", SIG)
    assert evaluate(M, f, {"x0": 0})
    M2 = apply_delta(M, ExtensionDelta(((2, fin(2)),), (("E", (1, 2)), ("E", (2, 1)))))
    assert evaluate(M2, f, {"x0": 0})
    # quantifier-free solutions over the old universe survive verbatim
    D = DefinableSet(parse("E(x0, y0)", SIG), ("x0",), (("y0", 1),))
    assert set(solutions(M, D)) <= set(solutions(M2, D))


# -- find_witness -----------------------------------------------------------------


def test_find_witness_first_lexicographic():
    M = _graph(((0, 1), (0, 2)), ((0, fin(0)), (1, fin(0)), (2, fin(0))))
    got = find_witness(M, parse("E(x0, y0)", SIG), {"x0": 0}, ("y0",), None)
    assert got == (1,)


def test_find_witness_respects_cap():
    M = _graph(((0, 2),), ((0, fin(0)), (1, fin(0)), (2, omega_plus(1))))
    f = parse("E(x0, y0)", SIG)
    assert find_witness(M, f, {"x0": 0}, ("y0",), omega_plus(0)) is None
    assert find_witness(M, f, {"x0": 0}, ("y0",), omega_plus(1)) == (2,)


def test_find_witness_matches_solution_scan():
    M = _graph(((0, 1), (1, 2)), ((0, fin(0)), (1, fin(1)), (2, fin(2))))
    f = parse("E(x0, y0) & !(y0 = x0)", SIG)
    for cap in [fin(0), fin(1), fin(2), None]:
        for a in M.universe:
            w = find_witness(M, f, {"x0": a}, ("y0",), cap)
            sols = solutions(
                M, DefinableSet(f, ("y0",), (("x0", a),), cap)
            )
            assert (w is None) == (not sols)
            if sols:
                assert w == sols[0]


# -- atomic types -----------------------------------------------------------------


def test_type_equal_identity():
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(0))))
    assert qf_type_equal(M, (0, 1), (0, 1))


def test_type_equal_rejects_length_mismatch():
    M = _graph((), ((0, fin(0)), (1, fin(0))))
    assert not qf_type_equal(M, (0,), (0, 1))


def test_singletons_in_distinct_classes_share_empty_param_type():
    # two equivalence classes; over no parameters both elements look alike
    M = FinStructure(
        SIG,
        ((0, fin(0)), (1, fin(0))),
        (("E", (0, 0)), ("E", (1, 1))),
    )
    assert qf_type_equal(M, (0,), (1,))


def test_differing_atom_over_parameter():
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(0)), (2, fin(0))))
    assert not qf_type_equal(M, (1,), (2,), over=(0,))


def test_diag_key_separates_equality_patterns():
    M = _graph((), ((0, fin(0)), (1, fin(0))))
    assert diag_key(M, (0, 0)) != diag_key(M, (0, 1))
    assert diag_key(M, (0, 0)) == diag_key(M, (1, 1))


def _atoms_key(M, tup):
    return tuple(holds for *_, holds in _atoms(M, tup, 0))


def _key_tuples(universe, rng):
    """Tuples of length 0 to 4: every one over the first three ids, so with
    each pattern of repeated ids, and 50 random ones per length over all."""
    few = universe[:3]
    out = [t for n in range(5) for t in itertools.product(few, repeat=n)]
    return out + [tuple(rng.choice(universe) for _ in range(n)) for n in range(1, 5) for _ in range(50)]


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_diag_key_is_the_atoms_in_their_order(chains12, name):
    """diag_key reads by set lookups the truths that _atoms enumerates, in
    _atoms' order, on each bundled 12-stage final."""
    M = chains12[name].final
    rng = random.Random(name)
    for tup in _key_tuples(M.universe, rng):
        assert diag_key(M, tup) == _atoms_key(M, tup), tup


@pytest.mark.parametrize(
    "relations", [(("P", 1), ("E", 2)), (("T", 3), ("Z", 0), ("E", 2))], ids=["P-E", "T-Z-E"]
)
def test_diag_key_follows_the_signature_order(relations):
    """Relations listed out of name order, a ternary and a nullary one:
    diag_key takes them in signature order, as _atoms does, and gives no
    atom for the nullary relation, which mentions no position."""
    rng, n = random.Random(str(relations)), 5
    facts = [
        (rel, t)
        for rel, ar in relations
        if ar
        for t in itertools.product(range(n), repeat=ar)
        if rng.random() < 0.5
    ]
    M = FinStructure(Signature(relations), tuple((e, fin(0)) for e in range(n)), tuple(facts))
    for tup in _key_tuples(M.universe, rng):
        assert diag_key(M, tup) == _atoms_key(M, tup), tup


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_diagram_matches_diag_key_by_product_scan(name):
    """On random structures over each bundled signature, diagram(M, ids,
    names, n_old) mentions a position >= n_old in every literal, holds of
    ids, and holds of a tuple that agrees with ids on the first n_old
    positions exactly when that tuple has ids' diag_key."""
    sig = PLUGINS[name].signature
    rng, n = random.Random(name), 4
    for _ in range(20):
        facts = [
            (rel, t)
            for rel, ar in sig.relations
            for t in itertools.product(range(n), repeat=ar)
            if rng.random() < 0.5
        ]
        M = FinStructure(sig, tuple((e, fin(0)) for e in range(n)), tuple(facts))
        for length in (1, 2, 3):
            ids = tuple(rng.randrange(n) for _ in range(length))
            names = tuple(f"v{i}" for i in range(length))
            for n_old in range(length + 1):
                lits = diagram(M, ids, names, n_old)
                for lit in lits:
                    assert max(names.index(v) for v in free_vars(lit)) >= n_old
                f = conjoin(lits) if lits else Eq("v0", "v0")
                assert evaluate(M, f, dict(zip(names, ids)))
                for tail in itertools.product(M.universe, repeat=length - n_old):
                    c = ids[:n_old] + tail
                    want = diag_key(M, c) == diag_key(M, ids)
                    assert evaluate(M, f, dict(zip(names, c))) == want, (ids, c, n_old)


# -- the shared walker and search against naive references --------------------------

LEVELS = (fin(0), fin(1), omega_plus(0))


@st.composite
def _structures(draw):
    """Up to four elements at mixed levels with an arbitrary E relation."""
    n = draw(st.integers(1, 4))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
    pairs = list(itertools.product(range(n), repeat=2))
    facts = draw(st.sets(st.sampled_from(pairs)))
    return FinStructure(SIG, tuple(enumerate(levels)), tuple(("E", t) for t in sorted(facts)))


@settings(max_examples=300, deadline=None)
@given(_structures(), _formulas(), st.data())
def test_solutions_match_the_product_scan(M, f, data):
    free = sorted(free_vars(f))
    order = data.draw(st.permutations(free + ["x9"]))  # x9: a slot f never mentions
    n_vars = data.draw(st.integers(0, len(order)))
    xs, rest = tuple(order[:n_vars]), order[n_vars:]
    params = tuple((v, data.draw(st.sampled_from(M.universe))) for v in rest)
    cap = data.draw(st.sampled_from((None,) + LEVELS))
    naive = [
        t
        for t in itertools.product(M.v_ids(cap), repeat=len(xs))
        if evaluate(M, f, dict(params) | dict(zip(xs, t)))
    ]
    assert solutions(M, DefinableSet(f, xs, params, cap)) == naive


@settings(max_examples=300, deadline=None)
@given(_structures(), _formulas(), st.data())
def test_witness_test_matches_find_witness(M, f, data):
    """One witness test, asked every parameter tuple in turn, answers each
    as find_witness should: whether the product scan over V_cap finds a
    witness. The two share the search stream, so the scan is the check."""
    free = sorted(free_vars(f))
    order = data.draw(st.permutations(free + ["y9"]))  # y9: a slot f never mentions
    n_vars = data.draw(st.integers(0, len(order)))
    ys, xs = tuple(order[:n_vars]), tuple(order[n_vars:])
    cap = data.draw(st.sampled_from((None,) + LEVELS))
    test = witnessed(M, f, xs, ys, cap)
    for a_bar in itertools.product(M.universe, repeat=len(xs)):
        env = dict(zip(xs, a_bar))
        want = any(
            evaluate(M, f, env | dict(zip(ys, t)))
            for t in itertools.product(M.v_ids(cap), repeat=len(ys))
        )
        assert test(a_bar) == want, a_bar


def test_witness_test_rejects_a_free_variable():
    M = _graph(((0, 1),), ((0, fin(0)), (1, fin(0))))
    for text in ("E(x0, y0) & E(y0, x1)", "E(x0, y0) | E(y0, x1)"):
        with pytest.raises(EvalError, match=r"unbound variables \['x1'\]"):
            witnessed(M, parse(text, SIG), ("x0",), ("y0",), None)


@settings(max_examples=300, deadline=None)
@given(_structures(), _formulas(), st.data())
def test_partial_truth_is_kleene_sound(M, f, data):
    env = {v: data.draw(st.sampled_from(M.universe)) for v in sorted(free_vars(f))}
    pairs = list(itertools.product(M.universe, repeat=2))
    open_ = data.draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))

    def partial_atom(rel, ids):
        return None if ids in open_ else M.has_fact(rel, ids)

    got = truth(f, env, partial_atom, M.v_ids)
    if not open_:
        assert got is evaluate(M, f, env)
    if got is None:
        return
    fixed = [t for t in M.facts("E") if t not in open_]
    levels = tuple((e, M.level_of(e)) for e in M.universe)
    for bits in itertools.product((False, True), repeat=len(open_)):
        chosen = [t for t, b in zip(open_, bits) if b]
        done = FinStructure(SIG, levels, tuple(("E", t) for t in fixed + chosen))
        assert evaluate(done, f, env) is got


def _in_nnf(f) -> bool:
    if isinstance(f, Not):
        return isinstance(f.body, (RelAtom, Eq, Exists))
    if isinstance(f, (And, Or)):
        return _in_nnf(f.left) and _in_nnf(f.right)
    return True


@settings(max_examples=300, deadline=None)
@given(_structures(), _formulas(), st.data())
def test_nnf_keeps_kleene_truth(M, f, data):
    g = nnf(f)
    assert _in_nnf(g)
    assert free_vars(g) == free_vars(f)
    env = {v: data.draw(st.sampled_from(M.universe)) for v in sorted(free_vars(f))}
    pairs = list(itertools.product(M.universe, repeat=2))
    open_ = data.draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))

    def partial_atom(rel, ids):
        return None if ids in open_ else M.has_fact(rel, ids)

    assert truth(g, env, partial_atom, M.v_ids) is truth(f, env, partial_atom, M.v_ids)
    assert evaluate(M, g, env) is evaluate(M, f, env)


# -- the index-driven search against the product scan -------------------------------

INDEXED = [
    # (formula, slot order): the tie comes from the left, from the right, from
    # two atoms at once, from an earlier slot, or not at all
    ("E(x0, y0)", ("y0",)),
    ("E(y0, x0)", ("y0",)),
    ("E(x0, y0) & E(x1, y0)", ("y0",)),
    ("E(x0, y0) & E(y0, x1) & !(y0 = x0)", ("y0",)),
    ("E(x0, y0) & E(y0, y1)", ("y0", "y1")),
    ("E(y1, y0) & E(x0, y1)", ("y0", "y1")),
    ("E(y0, y0)", ("y0",)),
    ("E(y0, y0) & E(x0, y0)", ("y0",)),
    ("!E(x0, y0)", ("y0",)),
    ("!E(x0, y0) & !(y0 = x1)", ("y0",)),
    ("E(x0, y0) | y0 = x1", ("y0",)),
    ("!(E(x0, y0) | E(y0, x1))", ("y0",)),
    ("E(x0, y0) & (E(y0, x1) | E(x1, y0))", ("y0",)),
    # a top-level Or, searched branch by branch: Henson's spread_pair shape,
    # three branches, overlapping branches, a branch that leaves a slot
    # unconstrained, and a branch that env alone can make false
    ("E(x0, x1) | (E(y0, x0) & E(y0, x1))", ("y0",)),
    ("E(x0, y0) | E(y0, x1) | (E(y0, y0) & !(y0 = x0))", ("y0",)),
    ("E(x0, y0) | (E(x0, y0) & E(y0, x1))", ("y0",)),
    ("E(x0, y0) | (E(x0, y0) & E(y0, y1))", ("y0", "y1")),
    ("E(y0, y1) | E(x0, y0)", ("y0", "y1")),
    ("E(y0, y1) | E(x0, y0)", ("y1", "y0")),
    ("(E(x0, x1) & E(x1, y0)) | E(y0, x0)", ("y0",)),
    # negated atoms that the witness test filters out of a slot's candidates:
    # from the left, from the right, beside a tie, from an earlier slot in
    # either order, equalities, a self-loop left to the leaf check, and
    # filters inside an Or branch
    ("!E(y0, x0)", ("y0",)),
    ("E(x0, y0) & !E(y0, x1)", ("y0",)),
    ("!E(x0, y0) & !E(x0, y1) & !E(y0, y1)", ("y0", "y1")),
    ("!E(x0, y0) & !E(x0, y1) & !E(y0, y1)", ("y1", "y0")),
    ("E(x0, y0) & !(y0 = x0) & !(y0 = x1)", ("y0",)),
    ("!E(y0, y0) & !(y0 = x0)", ("y0",)),
    ("E(x0, y0) | (!E(y0, x1) & !(y0 = x0))", ("y0",)),
]

ILEVELS = (fin(0), fin(1), omega_plus(0), omega_plus(1))


def _digraph(rng, n: int, p: float) -> FinStructure:
    """A directed E, so E(x0, y0) and E(y0, x0) differ, at mixed levels."""
    levels = tuple((e, rng.choice(ILEVELS)) for e in range(n))
    pairs = [t for t in itertools.product(range(n), repeat=2) if rng.random() < p]
    return FinStructure(SIG, levels, tuple(("E", t) for t in pairs))


@pytest.mark.parametrize("text, order", INDEXED, ids=[t for t, _ in INDEXED])
def test_indexed_search_matches_the_product_scan(text, order):
    f = parse(text, SIG)
    params = sorted(free_vars(f) - set(order))
    rng = random.Random(text)
    for trial in range(6):
        M = _digraph(rng, 12, rng.choice((0.1, 0.25, 0.5)))
        if trial % 2:
            # an induced substructure, as a stage is of the final structure
            keep = set(rng.sample(M.universe, 8))
            M = FinStructure(
                SIG,
                tuple((e, M.level_of(e)) for e in sorted(keep)),
                tuple(("E", t) for t in sorted(M.facts("E")) if keep.issuperset(t)),
            )
        for cap in (None,) + ILEVELS:
            # one witness test answers every parameter tuple of the cap
            test = witnessed(M, f, tuple(params), order, cap)
            for vals in itertools.product(M.universe[:5], repeat=len(params)):
                env = dict(zip(params, vals))
                naive = [
                    t
                    for t in itertools.product(M.v_ids(cap), repeat=len(order))
                    if evaluate(M, f, env | dict(zip(order, t)))
                ]
                dset = DefinableSet(f, order, tuple(env.items()), cap)
                assert solutions(M, dset) == naive
                first = naive[0] if naive else None
                assert find_witness(M, f, env, order, cap) == first
                assert env == dict(zip(params, vals))  # the caller's env is left alone
                assert test(vals) == bool(naive)
                # backtrack with candidates of its own, as the oracle runs it,
                # still checks the atoms that tie a slot
                plain = backtrack(f, env, order, lambda i, e: M.v_ids(cap), M.has_fact)
                assert [tuple(h[v] for v in order) for h in plain] == naive


def test_cap_cuts_the_neighbour_set():
    # 0's neighbours 1 and 3 sit above fin1; the only witness under the cap is 2
    M = _graph(
        ((0, 1), (0, 2), (0, 3)),
        ((0, fin(0)), (1, omega_plus(0)), (2, fin(1)), (3, omega_plus(1)), (4, fin(0))),
    )
    f = parse("E(x0, y0)", SIG)
    assert find_witness(M, f, {"x0": 0}, ("y0",), fin(1)) == (2,)
    assert solutions(M, DefinableSet(f, ("y0",), (("x0", 0),), omega_plus(0))) == [(1,), (2,)]


class _CountingStructure(FinStructure):
    """Counts the atoms a search evaluates."""

    calls = 0

    def has_fact(self, rel, tup):
        _CountingStructure.calls += 1
        return super().has_fact(rel, tup)


def test_common_neighbour_search_work_does_not_grow_with_the_universe():
    """A sparse graph: 0 and 1 share the one neighbour n - 1, and the rest
    is a path. The index offers y0 only that neighbour, however large n."""
    f = parse("E(x0, y0) & E(x1, y0)", SIG)
    counts = []
    for n in (20, 200):
        edges = [(0, n - 1), (1, n - 1)] + [(i, i + 1) for i in range(2, n - 2)]
        facts = [("E", t) for a, b in edges for t in ((a, b), (b, a))]
        M = _CountingStructure(SIG, tuple((e, fin(0)) for e in range(n)), tuple(facts))
        _CountingStructure.calls = 0
        assert find_witness(M, f, {"x0": 0, "x1": 1}, ("y0",), None) == (n - 1,)
        assert find_witness(M, f, {"x0": 0, "x1": 2}, ("y0",), None) is None
        counts.append(_CountingStructure.calls)
    assert counts[0] == counts[1]


def test_avoiding_witness_test_work_does_not_grow_with_the_universe():
    """0's out-neighbours are all ids but the last three, a, b and c, and 1's
    all but b and c. The search stream drops those neighbour sets from each
    slot's candidates by set lookups, so the witness test, find_witness and
    solutions each evaluate no more atoms at n = 200 than at n = 20; a leaf
    check per rejected candidate grows with n."""
    f = parse("!E(x0, y0) & !E(x0, y1) & !E(y0, y1)", SIG)
    counts = []
    for n in (20, 200):
        a, b, c = n - 3, n - 2, n - 1
        edges = [(0, e) for e in range(a)] + [(1, e) for e in range(b)]
        edges += [(a, a), (b, b), (c, c), (a, b), (b, c), (c, a), (c, b)]
        M = _CountingStructure(
            SIG, tuple((e, fin(0)) for e in range(n)), tuple(("E", t) for t in edges)
        )
        work = []
        _CountingStructure.calls = 0
        test = witnessed(M, f, ("x0",), ("y0", "y1"), None)
        assert test((0,)) and not test((1,))
        work.append(_CountingStructure.calls)
        _CountingStructure.calls = 0
        assert find_witness(M, f, {"x0": 0}, ("y0", "y1"), None) == (a, c)
        assert find_witness(M, f, {"x0": 1}, ("y0", "y1"), None) is None
        work.append(_CountingStructure.calls)
        _CountingStructure.calls = 0
        pairs = [solutions(M, DefinableSet(f, ("y0", "y1"), (("x0", x),))) for x in (0, 1)]
        assert pairs == [[(a, c), (b, a)], []]
        work.append(_CountingStructure.calls)
        counts.append(work)
    assert counts[0] == counts[1]


def test_spread_pair_search_work_does_not_grow_with_the_universe():
    """Henson's spread_pair on a sparse graph: 0 and 1 are not adjacent and
    share the one neighbour n - 1, and the rest is a path. Branch by branch,
    the search checks E(0, 1) once and offers y0 only the common neighbour,
    however large n. For an adjacent pair the first id of V_cap is a
    witness; 0 sits above fin0, so under that cap the first id is 1."""
    f = parse("E(x0, x1) | (E(y0, x0) & E(y0, x1))", SIG)
    counts = []
    for n in (20, 200, 2000):
        edges = [(0, n - 1), (1, n - 1)] + [(i, i + 1) for i in range(2, n - 2)]
        facts = [("E", t) for a, b in edges for t in ((a, b), (b, a))]
        levels = ((0, fin(1)),) + tuple((e, fin(0)) for e in range(1, n))
        M = _CountingStructure(SIG, levels, tuple(facts))
        _CountingStructure.calls = 0
        assert find_witness(M, f, {"x0": 0, "x1": 1}, ("y0",), None) == (n - 1,)
        counts.append(_CountingStructure.calls)
        assert find_witness(M, f, {"x0": 2, "x1": 3}, ("y0",), None) == (0,)
        assert find_witness(M, f, {"x0": 2, "x1": 3}, ("y0",), fin(0)) == (1,)
    assert counts[0] == counts[1] == counts[2]
