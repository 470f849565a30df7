"""Theory plugins: universal-axiom validation and the extension oracle."""

import itertools
import random

import pytest

from levelsat.evaluator import evaluate
from levelsat.formula import Not, Signature, fin, omega_plus, parse
from levelsat.structures import FinStructure, apply_delta
from levelsat.theory import PLUGINS, AxiomViolation, OracleError, RandomGraphTheory, get_plugin

from oracle_reference import VALIDATORS

RADO = get_plugin("random_graph")
EQUIV = get_plugin("generic_equivalence")
HENSON = get_plugin("henson_triangle_free")
ISET = get_plugin("infinite_set")

GSIG = RADO.signature
ESIG = EQUIV.signature


def test_plugin_registry():
    assert set(PLUGINS) == {
        "infinite_set",
        "random_graph",
        "generic_equivalence",
        "henson_triangle_free",
    }
    with pytest.raises(ValueError):
        get_plugin("zfc")


# -- validate_t_forall -------------------------------------------------------------


def test_empty_structure_has_no_violations():
    for pl in PLUGINS.values():
        M = FinStructure(pl.signature, (), ())
        assert pl.validate_t_forall(M) == []


def test_loop_violates_irreflexivity():
    M = FinStructure(GSIG, ((0, fin(0)),), (("R", (0, 0)),))
    names = {v.axiom for v in RADO.validate_t_forall(M)}
    assert "irreflexive" in names


def test_asymmetric_edge_reported():
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), (("R", (0, 1)),))
    names = {v.axiom for v in RADO.validate_t_forall(M)}
    assert "symmetric" in names


def test_missing_transitivity_reported():
    facts = [("E", (e, e)) for e in (0, 1, 2)]
    facts += [("E", (0, 1)), ("E", (1, 0)), ("E", (1, 2)), ("E", (2, 1))]
    M = FinStructure(ESIG, tuple((e, fin(0)) for e in (0, 1, 2)), tuple(facts))
    names = {v.axiom for v in EQUIV.validate_t_forall(M)}
    assert "transitive" in names


def test_triangle_reported():
    facts = []
    for a, b in ((0, 1), (1, 2), (0, 2)):
        facts += [("R", (a, b)), ("R", (b, a))]
    M = FinStructure(GSIG, tuple((e, fin(0)) for e in (0, 1, 2)), tuple(facts))
    names = {v.axiom for v in HENSON.validate_t_forall(M)}
    assert "triangle_free" in names
    assert RADO.validate_t_forall(M) == []


def _near_models(plugin, rng, count):
    """Small structures at mixed levels: a model of the plugin's universal
    axioms apart from triangles (symmetric loop-free edges, or the classes
    of a random partition), with up to two ordered pairs toggled, each with
    its reverse half the time."""
    for _ in range(count):
        n = rng.randint(0, 5)
        elements = tuple((e, rng.choice((fin(0), fin(1), omega_plus(0)))) for e in range(n))
        if not plugin.signature.relations:
            yield FinStructure(plugin.signature, elements, ())
            continue
        (rel, _), = plugin.signature.relations
        if rel == "E":
            label = [rng.randrange(3) for _ in range(n)]
            pairs = {(a, b) for a in range(n) for b in range(n) if label[a] == label[b]}
        else:
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
            pairs = {t for a, b in edges for t in ((a, b), (b, a))}
        for _ in range(rng.randint(0, 2) if n else 0):
            a, b = rng.randrange(n), rng.randrange(n)
            pairs ^= {(a, b), (b, a)} if rng.random() < 0.5 else {(a, b)}
        yield FinStructure(plugin.signature, elements, tuple((rel, t) for t in sorted(pairs)))


def test_validate_t_forall_matches_the_product_scan():
    """The counterexample search against a literal scan of every tuple under
    the negated axiom, as the ordered list of violations, and against the
    hand-coded validators of the brute-force oracle reference."""
    for name, plugin in sorted(PLUGINS.items()):
        rng = random.Random(name)
        violated, valid = set(), 0
        for M in _near_models(plugin, rng, 150):
            scan = [
                AxiomViolation(ax.name, t)
                for ax in plugin.universal_axioms
                for t in itertools.product(M.universe, repeat=len(ax.x_vars))
                if evaluate(M, Not(ax.formula), dict(zip(ax.x_vars, t)))
            ]
            got = plugin.validate_t_forall(M)
            assert got == scan, (name, M)
            assert (got == []) is VALIDATORS[name](M), (name, M)
            violated |= {v.axiom for v in got}
            valid += got == []
        # the sample reaches every axiom's violations, and models too
        assert violated == {ax.name for ax in plugin.universal_axioms}, name
        assert valid > 0, name


# -- extends_with_witness ------------------------------------------------------------


def test_rado_adds_one_neighbor():
    M = FinStructure(GSIG, ((0, fin(0)),), ())
    ext = RADO.extends_with_witness(
        M, parse("R(x0, y0) & !(y0 = x0)", GSIG), (0,), fin(1)
    )
    assert ext is not None
    assert len(ext.delta.new_elements) == 1
    (eid, lvl), = ext.delta.new_elements
    assert lvl == fin(1)
    assert ext.witness == (eid,)
    M2 = apply_delta(M, ext.delta)
    assert M2.has_fact("R", (0, eid)) and M2.has_fact("R", (eid, 0))


def test_rado_loop_unrealizable():
    M = FinStructure(GSIG, ((0, fin(0)),), ())
    assert RADO.extends_with_witness(M, parse("R(y0, y0)", GSIG), (), fin(1)) is None


def test_equivalence_singleton_gets_classmate():
    M = FinStructure(ESIG, ((0, fin(0)),), (("E", (0, 0)),))
    ext = EQUIV.extends_with_witness(
        M, parse("E(x0, y0) & !(y0 = x0)", ESIG), (0,), fin(1)
    )
    assert ext is not None
    assert len(ext.delta.new_elements) == 1
    M2 = apply_delta(M, ext.delta)
    assert M2.size() == 2
    assert EQUIV.validate_t_forall(M2) == []
    w = ext.witness[0]
    assert M2.has_fact("E", (0, w)) and M2.has_fact("E", (w, 0))


def test_internal_witness_beats_fresh_elements():
    # minimality: with an old element available, the delta stays empty
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), ())
    ext = RADO.extends_with_witness(M, parse("!(y0 = x0)", GSIG), (0,), fin(1))
    assert ext is not None
    assert ext.delta.is_empty()
    assert ext.witness == (1,)


def test_allowed_old_restricts_witness_but_not_existence():
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), ())
    phi = parse("!(y0 = x0)", GSIG)
    free = RADO.extends_with_witness(M, phi, (0,), fin(1))
    assert free is not None and free.witness == (1,)
    pinned = RADO.extends_with_witness(M, phi, (0,), fin(1), allowed_old=(0,))
    assert pinned is not None
    assert pinned.witness[0] not in (0, 1)  # forced to mint a fresh element


def test_parameters_stay_witness_candidates_under_allowed_old():
    # y0 = x0 is witnessed only by the parameter itself
    M = FinStructure(ESIG, ((0, fin(0)),), (("E", (0, 0)),))
    phi = parse("y0 = x0", ESIG)
    for allowed in (None, ()):
        ext = EQUIV.extends_with_witness(M, phi, (0,), fin(1), allowed_old=allowed)
        assert ext is not None
        assert ext.witness == (0,) and ext.delta.is_empty()


def test_henson_refuses_common_neighbor_of_edge():
    facts = (("R", (0, 1)), ("R", (1, 0)))
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), facts)
    phi = parse("R(x0, y0) & R(x1, y0)", GSIG)
    assert HENSON.extends_with_witness(M, phi, (0, 1), fin(1)) is None
    assert RADO.extends_with_witness(M, phi, (0, 1), fin(1)) is not None


def test_oracle_rejects_bad_inputs():
    M = FinStructure(GSIG, ((0, fin(0)),), ())
    with pytest.raises(OracleError):
        RADO.extends_with_witness(M, parse("exists y0. R(x0, y0)", GSIG), (0,), fin(1))
    with pytest.raises(OracleError):
        RADO.extends_with_witness(M, parse("R(x0, y0)", GSIG), (7,), fin(1))
    with pytest.raises(OracleError):
        RADO.extends_with_witness(
            M, parse("R(x0, y0)", GSIG), (0,), fin(1), x_vars=("x0",), y_vars=()
        )
    with pytest.raises(OracleError):
        RADO.extends_with_witness(
            M, parse("R(x0, y0)", GSIG), (0,), fin(1), allowed_old=(9,)
        )


def test_oracle_deterministic():
    M = FinStructure(ESIG, ((0, fin(0)), (1, fin(1))), (("E", (0, 0)), ("E", (1, 1))))
    phi = parse("E(x0, y0) & !(y0 = x0)", ESIG)
    a = EQUIV.extends_with_witness(M, phi, (0,), fin(2))
    b = EQUIV.extends_with_witness(M, phi, (0,), fin(2))
    assert a == b


# -- jointly_realizable ----------------------------------------------------------------


def test_single_constraint_matches_extension_oracle():
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), (("R", (0, 1)), ("R", (1, 0))))
    cases = [
        (parse("R(y0, p0)", GSIG), {"p0": 0}),
        (parse("R(y0, y0)", GSIG), {}),
        (parse("!(y0 = p0)", GSIG), {"p0": 0}),
    ]
    for phi, params in cases:
        via_joint = RADO.jointly_realizable(M, ("y0",), [(phi, params)])
        via_ext = (
            RADO.extends_with_witness(
                M,
                phi,
                tuple(params.values()),
                fin(1),
                x_vars=tuple(params),
                y_vars=("y0",),
            )
            is not None
        )
        assert via_joint == via_ext


def test_distinct_classes_not_jointly_satisfiable():
    facts = (("E", (0, 0)), ("E", (1, 1)))
    M = FinStructure(ESIG, ((0, fin(0)), (1, fin(0))), facts)
    f = parse("E(x0, p0)", ESIG)
    assert not EQUIV.jointly_realizable(
        M, ("x0",), [(f, {"p0": 0}), (f, {"p0": 1})]
    )
    # same class: realizable at x0 = that class
    M2 = FinStructure(
        ESIG,
        ((0, fin(0)), (1, fin(0))),
        (("E", (0, 0)), ("E", (1, 1)), ("E", (0, 1)), ("E", (1, 0))),
    )
    assert EQUIV.jointly_realizable(M2, ("x0",), [(f, {"p0": 0}), (f, {"p0": 1})])


def test_common_neighbor_jointly_realizable():
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), ())
    f = parse("R(x0, p0)", GSIG)
    assert RADO.jointly_realizable(M, ("x0",), [(f, {"p0": 0}), (f, {"p0": 1})])


def test_empty_constraint_list_realizable():
    M = FinStructure(GSIG, ((0, fin(0)),), ())
    assert RADO.jointly_realizable(M, ("x0",), [])


def test_joint_input_errors():
    M = FinStructure(GSIG, ((0, fin(0)), (1, fin(0))), ())
    f = parse("R(x0, p0)", GSIG)
    for params in ({"x0": 0}, {}, {"p0": 7}):  # collision, unbound, outside M
        with pytest.raises(OracleError):
            RADO.jointly_realizable(M, ("x0",), [(f, params)])


# -- oracle work as the universe grows -------------------------------------------------


def _counting_rado():
    """A random-graph plugin that counts its _slot_atom calls."""
    plugin, calls = RandomGraphTheory(), [0]
    atom = plugin._slot_atom

    def counted(*args):
        calls[0] += 1
        return atom(*args)

    plugin._slot_atom = counted
    return plugin, calls


def _edgeless(n):
    return FinStructure(GSIG, tuple((e, fin(0)) for e in range(n)), ())


def test_joint_query_work_does_not_grow_with_the_universe():
    """Two old points with no common neighbour: the query needs a fresh
    one, and no other old element can help, so none is tried."""
    f = parse("R(x0, p0)", GSIG)
    counts = []
    for n in (20, 200):
        plugin, calls = _counting_rado()
        assert plugin.jointly_realizable(
            _edgeless(n), ("x0",), [(f, {"p0": 0}), (f, {"p0": 1})]
        )
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_one_witness_extension_scans_the_universe_once():
    """The k=0 pass tries every old element once; the k=1 pass has a
    single slot, which must be the new marker."""
    n = 200
    plugin, calls = _counting_rado()
    ext = plugin.extends_with_witness(_edgeless(n), parse("R(x0, y0)", GSIG), (0,), fin(1))
    assert ext is not None and ext.witness == (n,)
    assert calls[0] <= n + 10


def test_fresh_only_step_costs_the_same_at_any_size(monkeypatch):
    """A common_neighbor step as the builder makes it, after find_witness
    has searched the old ids: with min_new=1 the one slot is the new
    marker, so the oracle neither sets up nor checks its pool of old ids,
    and its atom calls do not grow with the universe."""
    contains = [0]
    plain = FinStructure.__contains__

    def counted(M, eid):
        contains[0] += 1
        return plain(M, eid)

    monkeypatch.setattr(FinStructure, "__contains__", counted)
    phi = parse("R(x0, y0) & R(x1, y0)", GSIG)
    counts = []
    for n in (20, 200, 2000):
        plugin, calls = _counting_rado()
        M = _edgeless(n)
        contains[0] = 0
        ext = plugin.extends_with_witness(
            M, phi, (0, 1), fin(1), allowed_old=M.v_ids(fin(1)), min_new=1
        )
        assert ext is not None and ext.witness == (n,)
        counts.append((calls[0], contains[0]))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][1] == 2  # the two parameters, and no pool id


@pytest.mark.parametrize("seed", range(12))
def test_triangle_veto_matches_the_full_walk(seed):
    """_edges_ok against a walk over every old element and marker as the
    third vertex of a triangle through a true fresh pair. Seeds from 6 on
    draw denser and larger old graphs, where an old end has degree 5 or
    more."""
    rng = random.Random(seed)
    n_max, density = (6, 0.4) if seed < 6 else (10, 0.75)
    top_degree = 0
    for _ in range(40):
        n, k = rng.randint(1, n_max), rng.randint(1, 3)
        edges = {
            t for a, b in itertools.combinations(range(n), 2) if rng.random() < density
            for t in ((a, b), (b, a))
        }
        M = FinStructure(
            GSIG, tuple((e, fin(0)) for e in range(n)), tuple(("R", t) for t in edges)
        )
        top_degree = max(top_degree, *(len(M.neighbours("R", 0, e)) for e in range(n)))
        markers = [-(j + 1) for j in range(k)]
        env = {f"y{j}": m for j, m in enumerate(markers)}
        pairs = [(m, e) for m in markers for e in range(n)]
        pairs += itertools.combinations(markers[::-1], 2)  # (low, high)
        val = {p: rng.random() < 0.5 for p in pairs if rng.random() < 0.7}

        def edge(a, b):
            if a >= 0 and b >= 0:
                return (a, b) in edges
            return bool(val.get((min(a, b), max(a, b))))

        closes = any(
            edge(a, w) and edge(b, w)
            for (a, b), v in val.items() if v
            for w in list(range(n)) + markers if w not in (a, b)
        )
        assert HENSON._edges_ok(M, env, val) is not closes
    assert seed < 6 or top_degree >= 5


# -- oracle soundness ---------------------------------------------------------------


def test_oracle_soundness_batch():
    """Whenever the oracle says yes: the delta applies, the result passes the
    universal axioms, and the witness satisfies the formula."""
    gm = FinStructure(
        GSIG,
        ((0, fin(0)), (1, fin(1)), (2, fin(1))),
        (("R", (0, 1)), ("R", (1, 0))),
    )
    em = FinStructure(
        ESIG,
        ((0, fin(0)), (1, fin(1)), (2, fin(1))),
        (
            ("E", (0, 0)),
            ("E", (1, 1)),
            ("E", (2, 2)),
            ("E", (0, 1)),
            ("E", (1, 0)),
        ),
    )
    im = FinStructure(ISET.signature, ((0, fin(0)), (1, fin(1))), ())
    batch = [
        (RADO, gm, "R(x0, y0) & !(y0 = x1)", (0, 1)),
        (RADO, gm, "R(x0, y0) & R(x1, y0)", (0, 2)),
        (HENSON, gm, "!R(x0, y0) & !(y0 = x0)", (0,)),
        (EQUIV, em, "E(x0, y0) & !(y0 = x0) & !(y0 = x1)", (2, 0)),
        (EQUIV, em, "!E(x0, y0) & !E(x1, y0)", (0, 2)),
        (ISET, im, "!(y0 = x0) & !(y0 = x1)", (0, 1)),
    ]
    for plugin, M, text, a_bar in batch:
        phi = parse(text, plugin.signature)
        ext = plugin.extends_with_witness(M, phi, a_bar, fin(2))
        assert ext is not None, text
        M2 = apply_delta(M, ext.delta)
        assert plugin.validate_t_forall(M2) == [], text
        xs = tuple(f"x{i}" for i in range(len(a_bar)))
        env = dict(zip(xs, a_bar))
        env.update(zip(("y0",), ext.witness))
        assert evaluate(M2, phi, env), text
