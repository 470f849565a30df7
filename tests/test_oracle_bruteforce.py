"""Extension oracle vs. independent brute force on small instances.

Coverage: isomorphism-class representatives up to 4 elements per plugin
(every graph / triangle-free graph on <= 4 vertices, every set partition,
every bare set), crossed with each plugin's scheduled axiom matrices of
witness arity <= 2 and the first generic-stream formulas of size <= 4, over
all parameter tuples; plus seeded random labeled structures of 5 and 6
elements. For each instance the oracle must agree with the brute-force
search on existence AND on the minimal number of fresh elements, and every
oracle witness must re-check (axioms pass, formula holds).
"""

import itertools
import random

import pytest

from levelsat.evaluator import diag_key, evaluate, find_witness
from levelsat.formula import (
    And,
    Eq,
    Not,
    Or,
    RelAtom,
    _formula_stream,
    fin,
    parse,
    render,
    split_vars,
)
from levelsat.structures import FinStructure, apply_delta
from levelsat.theory import PLUGINS, get_plugin

from oracle_reference import brute_force_jointly, brute_force_min_new

MAX_Y = 2
MAX_X = 2
MAX_SIZE = 4
STREAM_LIMIT = 24


def _size(f) -> int:
    if isinstance(f, (RelAtom, Eq)):
        return 1
    if isinstance(f, Not):
        return 1 + _size(f.body)
    if isinstance(f, (And, Or)):
        return 1 + _size(f.left) + _size(f.right)
    raise TypeError(f)


def _stream_formulas(sig):
    out = []
    for f, xs, ys in _formula_stream(sig):
        if len(ys) > MAX_Y or len(xs) > MAX_X:
            continue
        if _size(f) > MAX_SIZE:
            continue
        out.append((f, xs, ys))
        if len(out) >= STREAM_LIMIT:
            break
    return out


def _formula_pool(plugin):
    pool = list(_stream_formulas(plugin.signature))
    for f, xs, ys in plugin.seeds():
        if len(ys) <= MAX_Y and len(xs) <= MAX_X:
            pool.append((f, xs, ys))
    # the scope must include two-witness search, not only single witnesses
    assert any(len(ys) == 2 for _, _, ys in pool)
    return pool


# -- structure inventories ------------------------------------------------------


def _graph_structure(sig, n, edges):
    facts = []
    for a, b in edges:
        facts.append(("R", (a, b)))
        facts.append(("R", (b, a)))
    return FinStructure(sig, tuple((e, fin(0)) for e in range(n)), tuple(facts))


def _graph_reps(sig, n, triangle_free):
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, out = set(), []
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        if triangle_free and any(
            frozenset({(min(a, b), max(a, b)), (min(b, c), max(b, c))}) <= edges
            and (min(a, c), max(a, c)) in edges
            for a, b, c in itertools.combinations(range(n), 3)
        ):
            continue
        canon = min(
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(_graph_structure(sig, n, edges))
    return out


def _equiv_structure(sig, blocks):
    n = sum(len(b) for b in blocks)
    facts = []
    for b in blocks:
        for u in b:
            for v in b:
                facts.append(("E", (u, v)))
    return FinStructure(sig, tuple((e, fin(0)) for e in range(n)), tuple(facts))


def _int_partitions(n, most=None):
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for head in range(min(n, most), 0, -1):
        for rest in _int_partitions(n - head, head):
            yield (head,) + rest


def _equiv_reps(sig, n):
    out = []
    for shape in _int_partitions(n):
        blocks, at = [], 0
        for sz in shape:
            blocks.append(list(range(at, at + sz)))
            at += sz
        out.append(_equiv_structure(sig, blocks))
    return out


def _structures_upto4(plugin):
    sig = plugin.signature
    out = []
    for n in range(1, 5):
        if plugin.name == "infinite_set":
            out.append(FinStructure(sig, tuple((e, fin(0)) for e in range(n)), ()))
        elif plugin.name == "generic_equivalence":
            out.extend(_equiv_reps(sig, n))
        else:
            out.extend(_graph_reps(sig, n, plugin.name == "henson_triangle_free"))
    return out


def _random_structures(plugin, sizes=(5, 6), per_size=3, seed=20260819):
    rng = random.Random(seed)
    sig = plugin.signature
    out = []
    for n in sizes:
        for _ in range(per_size):
            if plugin.name == "infinite_set":
                out.append(FinStructure(sig, tuple((e, fin(0)) for e in range(n)), ()))
                continue
            if plugin.name == "generic_equivalence":
                blocks: list[list[int]] = []
                for e in range(n):
                    if blocks and rng.random() < 0.6:
                        rng.choice(blocks).append(e)
                    else:
                        blocks.append([e])
                out.append(_equiv_structure(sig, blocks))
                continue
            while True:
                edges = [
                    p
                    for p in itertools.combinations(range(n), 2)
                    if rng.random() < 0.3
                ]
                M = _graph_structure(sig, n, edges)
                if not plugin.validate_t_forall(M):
                    out.append(M)
                    break
    return out


# -- the sweep -----------------------------------------------------------------


def _check_instance(plugin, M, phi, xs, ys, a_bar):
    ext = plugin.extends_with_witness(
        M, phi, a_bar, fin(1), x_vars=xs, y_vars=ys
    )
    a_env = dict(zip(xs, a_bar))
    ref_j, _ = brute_force_min_new(
        plugin, M, phi, a_env, ys, fin(1), max_new=len(ys)
    )
    label = f"{plugin.name}: {render(phi)} at {a_bar} on |M|={M.size()}"
    if ext is None:
        assert ref_j is None, f"oracle says no, brute force realizes: {label}"
        return
    assert ref_j is not None, f"oracle realizes, brute force says no: {label}"
    assert len(ext.delta.new_elements) == ref_j, f"not minimal: {label}"
    M2 = apply_delta(M, ext.delta)
    assert plugin.validate_t_forall(M2) == [], label
    env = dict(a_env)
    env.update(zip(ys, ext.witness))
    assert evaluate(M2, phi, env), label


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_oracle_agrees_with_brute_force_exhaustive_upto4(name):
    plugin = get_plugin(name)
    pool = _formula_pool(plugin)
    checked = 0
    for M in _structures_upto4(plugin):
        for phi, xs, ys in pool:
            for a_bar in itertools.product(M.universe, repeat=len(xs)):
                _check_instance(plugin, M, phi, xs, ys, a_bar)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_oracle_agrees_with_brute_force_sampled_5_6(name):
    plugin = get_plugin(name)
    pool = _formula_pool(plugin)
    rng = random.Random(7)
    checked = 0
    for M in _random_structures(plugin):
        for phi, xs, ys in pool:
            if M.size() == 6 and len(ys) > 1:
                continue  # keeps the fact-set enumeration within budget
            tuples = list(itertools.product(M.universe, repeat=len(xs)))
            for a_bar in rng.sample(tuples, min(4, len(tuples))):
                _check_instance(plugin, M, phi, xs, ys, a_bar)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_refusal_does_not_depend_on_allowed_old(name):
    """extends_with_witness promises that a None result never depends on
    allowed_old: the narrowest pool, allowed_old=(), must refuse exactly
    where the whole-universe default refuses."""
    plugin = get_plugin(name)
    pool = _formula_pool(plugin)
    mismatched, checked = [], 0
    for M in _structures_upto4(plugin) + _random_structures(plugin):
        for phi, xs, ys in pool:
            for a_bar in itertools.product(M.universe, repeat=len(xs)):
                default, narrow = (
                    plugin.extends_with_witness(
                        M, phi, a_bar, fin(1), x_vars=xs, y_vars=ys, allowed_old=allowed
                    )
                    for allowed in (None, ())
                )
                checked += 1
                if (default is None) != (narrow is None):
                    mismatched.append(f"{render(phi)} at {a_bar} on |M|={M.size()}")
    assert checked > 50
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_fresh_only_search_matches_the_default_call(name):
    """build_stage calls the oracle with min_new=1 only once find_witness has
    found no witness over allowed_old plus the parameters. Wherever that
    all-old search finds nothing, min_new=1 must return exactly what the
    default call returns: for allowed_old None (the universe, searched by
    find_witness) and for allowed_old () (the parameters alone, searched
    by a product scan)."""
    plugin = get_plugin(name)
    pool = _formula_pool(plugin)
    outcomes, checked = set(), 0
    for M in _structures_upto4(plugin) + _random_structures(plugin):
        for phi, xs, ys in pool:
            for a_bar in itertools.product(M.universe, repeat=len(xs)):
                env = dict(zip(xs, a_bar))
                for allowed in (None, ()):
                    if allowed is None:
                        old_hit = find_witness(M, phi, env, ys, None) is not None
                    else:
                        old_hit = any(
                            evaluate(M, phi, {**env, **dict(zip(ys, w))})
                            for w in itertools.product(sorted(set(a_bar)), repeat=len(ys))
                        )
                    if old_hit:
                        continue
                    default, fresh_only = (
                        plugin.extends_with_witness(
                            M, phi, a_bar, fin(1), x_vars=xs, y_vars=ys,
                            allowed_old=allowed, min_new=k,
                        )
                        for k in (0, 1)
                    )
                    assert fresh_only == default, f"{render(phi)} at {a_bar} on |M|={M.size()}"
                    outcomes.add(default is None)
                    checked += 1
    assert checked > 50 and outcomes == {True, False}


def _families(M, pool, rng):
    """Constraint families of 2 and 3 pool formulas, each with its x
    variables bound to a tuple of M, and the union of their y variables,
    which the family shares. Per pool formula: one family of instances of
    that formula alone and one that mixes in random pool formulas."""
    for entry in pool:
        for size in (2, 3):
            for members in ([entry] * size, [entry] + rng.sample(pool, size - 1)):
                shared = tuple(sorted({y for _, _, ys in members for y in ys}))
                cons = [
                    (f, {x: rng.choice(M.universe) for x in xs}) for f, xs, _ in members
                ]
                yield shared, cons


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_joint_realizability_agrees_with_brute_force(name):
    """jointly_realizable tries only the parameter ids and fresh markers;
    the reference tries every element of M. They must agree on families of
    constraints sharing their y variables."""
    plugin = get_plugin(name)
    pool = _formula_pool(plugin)
    rng = random.Random(11)
    seen, mismatched = set(), []
    for M in _structures_upto4(plugin) + _random_structures(plugin):
        for shared, cons in _families(M, pool, rng):
            if M.size() > 3 and len(shared) > 1:
                continue  # keeps the fact-set enumeration within budget
            got = plugin.jointly_realizable(M, shared, cons)
            want = brute_force_jointly(plugin, M, shared, cons, max_new=len(shared))
            seen.add(want)
            if got != want:
                mismatched.append(
                    f"{[(render(f), p) for f, p in cons]} on |M|={M.size()}: {got}"
                )
    assert seen == {True, False}
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_joint_answer_depends_only_on_the_parameters_diagram(name):
    """certify_dividing asks once per atomic diagram. Families of 2 or 3
    instances of a one-witness pool formula, over every parameter tuple of
    several random structures: tuples with one diag_key, in one structure or
    in two, get one answer, and the first and last tuple of each diagram get
    brute force's."""
    plugin = get_plugin(name)
    structures = _random_structures(plugin, sizes=(4, 5), per_size=2, seed=5)
    answers = set()
    for f, xs, ys in _formula_pool(plugin):
        n = len(xs)
        if len(ys) != 1 or not n:
            continue
        for k in (2, 3) if n == 1 else (2,):
            by_key: dict = {}
            for M in structures:
                for t in itertools.product(M.universe, repeat=k * n):
                    cons = [(f, dict(zip(xs, t[i * n : (i + 1) * n]))) for i in range(k)]
                    got = plugin.jointly_realizable(M, ys, cons)
                    by_key.setdefault(diag_key(M, t), []).append((M, cons, got))
            for rows in by_key.values():
                assert len({got for _, _, got in rows}) == 1, render(f)
                for M, cons, got in (rows[0], rows[-1]):
                    assert brute_force_jointly(plugin, M, ys, cons, max_new=1) == got
                    answers.add(got)
    assert answers == {True, False}


def test_asymmetric_and_loopy_fact_sets_fail_validation():
    """The reference enumerates only symmetric loop-free fact sets for the
    graph theories; this pins down that the skipped region is all invalid."""
    rado = get_plugin("random_graph")
    sig = rado.signature
    M_loop = FinStructure(sig, ((0, fin(0)),), (("R", (0, 0)),))
    assert rado.validate_t_forall(M_loop)
    M_asym = FinStructure(sig, ((0, fin(0)), (1, fin(0))), (("R", (0, 1)),))
    assert rado.validate_t_forall(M_asym)
    equiv = get_plugin("generic_equivalence")
    M_noloop = FinStructure(equiv.signature, ((0, fin(0)),), ())
    assert equiv.validate_t_forall(M_noloop)


# -- answers fixed by the diagram and the id order -------------------------------


# one-slot formulas whose answers depend on the order of the parameters' ids
_ORDER_FORMULAS = (
    "R(x0, y0) | R(x1, y0)",
    "(R(x0, y0) & !R(x1, y0)) | (!R(x0, y0) & R(x1, y0))",
)


def _id_order(t):
    return tuple(sorted(range(len(t)), key=t.__getitem__))


def _renamed(ext, a_bar, base):
    """ext with each parameter id named by its first position in a_bar, each
    id from base by its offset, and any other old id kept as it is."""
    if ext is None:
        return None

    def name(e):
        if e >= base:
            return ("new", e - base)
        return ("x", a_bar.index(e)) if e in a_bar else ("old", e)

    return (
        tuple(name(e) for e, _ in ext.delta.new_elements),
        tuple((rel, tuple(map(name, terms))) for rel, terms in ext.delta.new_facts),
        tuple(map(name, ext.witness)),
    )


def _fresh_answer(plugin, M, phi, xs, ys, a_bar):
    ext = plugin.extends_with_witness(M, phi, a_bar, fin(1), x_vars=xs, y_vars=ys, min_new=1)
    return _renamed(ext, a_bar, M.max_id + 1)


@pytest.mark.parametrize(
    "name", [n for n in sorted(PLUGINS) if PLUGINS[n].answer_fixed_by_diagram_and_order]
)
def test_fresh_answers_are_fixed_by_diagram_and_id_order(name):
    """A plugin that declares answer_fixed_by_diagram_and_order gives one
    renamed one-slot answer (min_new=1) for every two parameter tuples with
    one diag_key and one id order, in one random structure of up to 6
    elements or in two, over 40 one-slot formulas drawn from the formula
    stream and, for the graphs, two whose answers depend on the order. For
    the graphs, the order must be in that key."""
    plugin = get_plugin(name)
    sig = plugin.signature
    stream = itertools.islice(_formula_stream(sig), 3000)
    pool = random.Random(22).sample(
        [(f, xs, ys) for f, xs, ys in stream if len(ys) == 1 and len(xs) <= 2], 40
    )
    if sig.relations:
        pool += [(f, *split_vars(f)) for f in (parse(t, sig) for t in _ORDER_FORMULAS)]
    structures = _random_structures(plugin, sizes=(3, 4, 5, 6), per_size=2, seed=22)
    by_key, by_diagram, checked = {}, {}, 0
    for phi, xs, ys in pool:
        for M in structures:
            for a_bar in itertools.product(M.universe, repeat=len(xs)):
                got = _fresh_answer(plugin, M, phi, xs, ys, a_bar)
                key = (render(phi), diag_key(M, a_bar))
                by_key.setdefault((*key, _id_order(a_bar)), set()).add(got)
                by_diagram.setdefault(key, set()).add(got)
                checked += 1
    mixed = [k for k, answers in by_key.items() if len(answers) > 1]
    assert checked > 1000 and not mixed, mixed[:3]
    assert {None} < set.union(*by_key.values())  # refusals and witnesses both seen
    if sig.relations:
        assert any(len(answers) > 1 for answers in by_diagram.values())


def test_graph_answers_depend_on_the_id_order():
    """On an edgeless 3-element graph, R(x0, y0) | R(x1, y0) joins the fresh
    point to position 1 at (1, 2) but to position 0 at (2, 1)."""
    rado = get_plugin("random_graph")
    M = _graph_structure(rado.signature, 3, ())
    phi = parse(_ORDER_FORMULAS[0], rado.signature)
    xs, ys = ("x0", "x1"), ("y0",)
    assert diag_key(M, (1, 2)) == diag_key(M, (2, 1))
    assert _fresh_answer(rado, M, phi, xs, ys, (1, 2))[1] == (
        ("R", (("new", 0), ("x", 1))), ("R", (("x", 1), ("new", 0)))
    )
    assert _fresh_answer(rado, M, phi, xs, ys, (2, 1))[1] == (
        ("R", (("new", 0), ("x", 0))), ("R", (("x", 0), ("new", 0)))
    )


def test_equivalence_answers_are_not_fixed_by_diagram_and_id_order():
    """generic_equivalence keeps answer_fixed_by_diagram_and_order off: with
    classes {0, 3}, {1}, {2}, the tuples (1, 2) and (1, 3) share a diagram
    and an id order, yet E(x0, y0) | E(x1, y0) puts the fresh point in x0's
    class at (1, 2) (old classes are tried by least member) and in x1's at
    (1, 3), linked to 0, which no parameter names."""
    equiv = get_plugin("generic_equivalence")
    assert not equiv.answer_fixed_by_diagram_and_order
    M = _equiv_structure(equiv.signature, [[0, 3], [1], [2]])
    phi = parse("E(x0, y0) | E(x1, y0)", equiv.signature)
    xs, ys = ("x0", "x1"), ("y0",)
    assert diag_key(M, (1, 2)) == diag_key(M, (1, 3)) and _id_order((1, 2)) == _id_order((1, 3))
    at_12, at_13 = (_fresh_answer(equiv, M, phi, xs, ys, t) for t in ((1, 2), (1, 3)))
    assert ("E", (("new", 0), ("x", 0))) in at_12[1]
    assert ("E", (("new", 0), ("x", 1))) in at_13[1]
    assert ("E", (("new", 0), ("old", 0))) in at_13[1]
