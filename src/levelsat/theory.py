"""Theory plugins: axioms plus a one-step extension oracle.

A plugin owns a relational signature, the universal axioms of its theory,
and a list of AE axioms (forall x-bar exists y-bar, quantifier-free matrix).
It declares its axioms as text, one (name, formula text) pair each, and
TheoryPlugin.__init__ parses them over the signature.
Its oracle answers: given a structure M satisfying the universal axioms and
a quantifier-free constraint phi(x-bar, y-bar) with x-bar bound in M, is
there an extension of M, still satisfying the universal axioms and embeddable
in a model of the theory, that realizes phi? If yes it returns a minimal
witness extension; if no, that answer is final for every later stage as well,
because growing M only adds constraints.

All four bundled theories have quantifier elimination and free-ish
amalgamation, so realizability reduces to a finite pattern search over which
new points to add and how they relate to the old ones. Minimality: fewest new
elements first, then a fixed lexicographic tie-break (old ids ascending before
fresh slots, fresh attributes in canonical order, edge valuations
false-before-true). Two calls with equal arguments return equal results.

The search over slot assignments (TheoryPlugin._search) runs on the
evaluator's one backtracking routine, evaluator.backtrack, and every
three-valued check goes through evaluator.truth with the plugin's
_slot_atom as the atom function.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .evaluator import DefinableSet, backtrack, solutions, truth
from .formula import (
    And,
    Formula,
    LevelOrdinal,
    Not,
    Or,
    RelAtom,
    Signature,
    conjoin,
    conjuncts,
    free_vars,
    is_quantifier_free,
    nnf,
    parse,
    rename_vars,
    split_vars,
)
from .structures import ExtensionDelta, FinStructure


class OracleError(ValueError):
    """Misuse of the oracle interface: bad formula shape, dangling ids."""


@dataclass(frozen=True)
class Axiom:
    name: str
    formula: Formula
    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    elements: tuple[int, ...]


@dataclass(frozen=True)
class WitnessExtension:
    """delta: what to add to M. witness: ids for the y variables, aligned
    with the y_vars order; ids of new elements refer into the delta."""

    delta: ExtensionDelta
    witness: tuple[int, ...]


def _axiom(name: str, text: str, sig: Signature) -> Axiom:
    f = parse(text, sig)
    xs, ys = split_vars(f)
    return Axiom(name, f, xs, ys)


def _old_pool(
    M: FinStructure, a_tuple: tuple[int, ...], allowed_old: Optional[Sequence[int]]
) -> Sequence[int]:
    """The old ids an oracle witness may use: the universe, or allowed_old
    plus the parameters, each checked against the universe."""
    if allowed_old is None:
        return M.universe
    pool = tuple(sorted(set(allowed_old) | set(a_tuple)))
    for e in pool:
        if e not in M:
            raise OracleError(f"allowed_old id {e} not in the universe")
    return pool


def _markers(env: dict[str, int]) -> int:
    """Fresh markers in a slot assignment: they are -1, -2, ... in first-use
    order, so the count is the least term negated, 0 when all are old."""
    return max(0, -min(env.values(), default=0))


class TheoryPlugin(abc.ABC):
    """Shared oracle machinery; concrete theories fill in the two hooks.

    Replacement contract, which every plugin must meet: if a
    quantifier-free constraint is realizable over M, it stays realizable
    when each old witness component that no parameter names is swapped for
    a fresh element carrying the same atoms with the parameters and the
    other components. So the old ids worth trying are the parameters, and
    fresh markers cover the rest. The bundled theories meet it: a fresh
    graph point takes only the edges the atoms need, and fewer edges never
    close a triangle; an equivalence class no parameter lies in acts like a
    new class; the bare set has no relations. extends_with_witness and
    jointly_realizable rely on it.

    So a joint answer depends only on the atomic diagram (evaluator.diag_key)
    of the constraints' parameter ids, listed in one fixed order. By the
    contract the search tries only those ids and fresh markers; _slot_atom
    reads facts among those ids; and _complete sees any other old element
    only through an atom that a non-parameter cannot carry (a fresh graph
    point gets edges only to the parameters, and equivalence class labels
    are compared only by equality). Hence two parameter tuples with one
    diagram pose the same search up to renaming the ids, in any structure
    of the theory. certify_dividing relies on it to ask once per diagram.

    answer_fixed_by_diagram_and_order promises more, for extends_with_witness
    with one y slot and min_new=1, where the search tries only the fresh
    marker and never reads its pool: two parameter tuples with one diag_key
    and one order of their ids (in one structure of the theory or in two)
    get one answer, refusals included, up to renaming the parameters to
    their positions and the fresh ids to their offsets from max_id + 1.
    build_stage memoises the answers by that key. The order belongs in the
    key: _complete tries fresh edges by ascending id, so on an edgeless
    graph R(x0, y0) | R(x1, y0) joins the fresh point to position 1 at
    (1, 2) but to position 0 at (2, 1), one diagram. GenericEquivalenceTheory
    keeps the default False: its answer links the fresh point to class
    members no parameter names, and it tries old classes by least member,
    which is not read from the parameters' diagram and order. With classes
    {0, 3}, {1}, {2}, the same formula puts the fresh point in x0's class
    at (1, 2) but in x1's at (1, 3).
    """

    name: str = ""
    signature: Signature = Signature(())
    # (name, text) pairs, parsed over the signature into universal_axioms
    # and ae_axioms when the plugin is made
    universal_texts: tuple[tuple[str, str], ...] = ()
    ae_texts: tuple[tuple[str, str], ...] = ()
    answer_fixed_by_diagram_and_order: bool = False

    def __init__(self) -> None:
        sig = self.signature
        self.universal_axioms = tuple(_axiom(n, t, sig) for n, t in self.universal_texts)
        self.ae_axioms = tuple(_axiom(n, t, sig) for n, t in self.ae_texts)

    # -- axioms --------------------------------------------------------------

    def seeds(self) -> tuple[tuple[Formula, tuple[str, ...], tuple[str, ...]], ...]:
        return tuple((ax.formula, ax.x_vars, ax.y_vars) for ax in self.ae_axioms)

    def validate_t_forall(self, M: FinStructure) -> list[AxiomViolation]:
        """All violations of the universal axioms in M, axiom by axiom, each
        axiom's lexicographic; empty means M is a legal partial model. Each
        is a search for counterexamples: the negated axiom in negation normal
        form, so its positive atoms tie slots to the neighbour index."""
        return [
            AxiomViolation(ax.name, tup)
            for ax in self.universal_axioms
            for tup in solutions(M, DefinableSet(nnf(Not(ax.formula)), ax.x_vars))
        ]

    # -- oracle entry points ---------------------------------------------------

    def extends_with_witness(
        self,
        M: FinStructure,
        phi: Formula,
        a_tuple: tuple[int, ...],
        level_for_new: LevelOrdinal,
        *,
        x_vars: Optional[tuple[str, ...]] = None,
        y_vars: Optional[tuple[str, ...]] = None,
        allowed_old: Optional[Sequence[int]] = None,
        min_new: int = 0,
    ) -> Optional[WitnessExtension]:
        """Minimal extension of M realizing phi(a_tuple, y-bar), or None if
        no extension inside the theory realizes it (final: stays None for
        every extension of M).

        Old elements used as witness components are drawn from allowed_old
        plus the parameters a_tuple when allowed_old is given (default: the
        whole universe); new elements enter at level_for_new. A None result
        never depends on allowed_old, by the replacement contract (class
        docstring): the restriction only shapes which witness comes back,
        not whether one exists. The pool of old ids is set up, and checked
        against the universe (OracleError), only once a witness slot draws
        from it.

        The search tries witnesses with min_new new elements first. A caller
        that has already found no witness over the pool, all of whose
        components are old, passes 1 and gets the default call's answer
        without repeating that search.
        """
        if x_vars is None or y_vars is None:
            xs, ys = split_vars(phi)
            x_vars = xs if x_vars is None else x_vars
            y_vars = ys if y_vars is None else y_vars
        if not is_quantifier_free(phi):
            raise OracleError("oracle constraints must be quantifier-free")
        if len(x_vars) != len(a_tuple):
            raise OracleError(f"need {len(x_vars)} parameters, got {len(a_tuple)}")
        for e in a_tuple:
            if e not in M:
                raise OracleError(f"parameter {e} not in the universe")
        leftover = free_vars(phi) - set(x_vars) - set(y_vars)
        if leftover:
            raise OracleError(f"unsplit variables {sorted(leftover)}")
        env0 = dict(zip(x_vars, a_tuple))
        pool = partial(_old_pool, M, a_tuple, allowed_old)
        hit = self._search(M, phi, env0, tuple(y_vars), pool, min_new)
        if hit is None:
            return None
        facts, env = hit
        base = M.max_id + 1
        def resolve(t: int) -> int:
            return t if t >= 0 else base + (-t - 1)
        k = _markers(env)
        delta = ExtensionDelta(
            tuple((base + j, level_for_new) for j in range(k)),
            tuple((rel, tuple(resolve(t) for t in terms)) for rel, terms in facts),
        )
        return WitnessExtension(delta, tuple(resolve(env[y]) for y in y_vars))

    def jointly_realizable(
        self,
        M: FinStructure,
        x_vars: tuple[str, ...],
        constraints: Sequence[tuple[Formula, dict[str, int]]],
    ) -> bool:
        """Whether one assignment of x_vars (into M or a one-step extension
        inside the theory) satisfies every constraint at once. Constraint
        parameter variables are private per constraint; x_vars are shared.
        By the replacement contract (class docstring) the search tries only
        the parameter ids plus fresh markers as values, never the elements
        no constraint mentions."""
        parts: list[Formula] = []
        env: dict[str, int] = {}
        for i, (phi, params) in enumerate(constraints):
            if not is_quantifier_free(phi):
                raise OracleError("constraints must be quantifier-free")
            others = free_vars(phi) - set(x_vars)
            mapping = {v: f"c{i}_{v}" for v in sorted(others)}
            for v, eid in sorted(params.items()):
                if v in x_vars:
                    raise OracleError(f"parameter {v!r} collides with a shared variable")
                if v not in others:
                    raise OracleError(f"parameter {v!r} is not free in constraint {i}")
                if eid not in M:
                    raise OracleError(f"parameter id {eid} not in the universe")
                env[mapping[v]] = eid
            missing = {mapping[v] for v in others} - set(env)
            if missing:
                raise OracleError(f"unbound parameters in constraint {i}: {sorted(missing)}")
            parts.append(rename_vars(phi, mapping))
        if not parts:
            return True
        pool = tuple(sorted(set(env.values())))
        hit = self._search(M, conjoin(parts), env, tuple(x_vars), lambda: pool, 0)
        return hit is not None

    # -- the pattern search ------------------------------------------------------

    def _search(
        self,
        M: FinStructure,
        phi: Formula,
        env0: dict[str, int],
        y_vars: tuple[str, ...],
        pool: Callable[[], Sequence[int]],
        kmin: int,
    ) -> Optional[tuple[list[tuple[str, tuple[int, ...]]], dict[str, int]]]:
        """Backtracking over slot assignments. Old ids come from pool(),
        called once, when a slot first may take one. Fresh slots are negative
        markers -1, -2, ... introduced in first-use order; pass k admits
        exactly k distinct markers, for k from kmin to len(y_vars), so
        fewer-new-element witnesses win. Returns (new facts over terms,
        full term environment) or None."""
        parts = conjuncts(phi)
        atom = partial(self._slot_atom, M, None)
        old: list[Sequence[int]] = []  # [pool()] once a slot has asked
        for k in range(kmin, len(y_vars) + 1):

            def candidates(i: int, env: dict[str, int]) -> tuple[int, ...]:
                used = _markers(env)
                # need <= left: k <= len(y_vars), and need == left forces a new marker
                need, left = k - used, len(y_vars) - i
                if need == left:
                    return (-(used + 1),)  # every slot left must be a new marker
                if not old:
                    old.append(pool())
                return (*old[0], *(-(j + 1) for j in range(min(used + 1, k))))

            # the pruning above makes every leaf use exactly k markers
            for env in backtrack(phi, env0, y_vars, candidates, atom):
                facts = self._complete(M, parts, env)
                if facts is not None:
                    return facts, dict(env)
        return None

    # -- hooks -------------------------------------------------------------------

    @abc.abstractmethod
    def _slot_atom(
        self, M: FinStructure, val: Optional[dict], rel: str, terms: tuple[int, ...]
    ) -> Optional[bool]:
        """Truth of a relation atom over terms (old ids >= 0, fresh markers
        < 0) insofar as M and val force it; None if a later choice decides.
        val is the plugin's choice of structure on the fresh markers that
        _complete is trying, None during the slot search."""

    @abc.abstractmethod
    def _complete(
        self, M: FinStructure, parts: Sequence[Formula], env: dict[str, int]
    ) -> Optional[list[tuple[str, tuple[int, ...]]]]:
        """Given a full slot assignment, choose the remaining relational
        structure on fresh markers, or report impossibility. Returns the new
        facts (over terms) needed, closed under the universal axioms."""


# ---------------------------------------------------------------------------
# the pure-equality theory


class InfiniteSetTheory(TheoryPlugin):
    """Infinite sets with no structure. Every equality pattern with enough
    fresh points is realizable."""

    name = "infinite_set"
    signature = Signature(())
    answer_fixed_by_diagram_and_order = True
    ae_texts = (
        ("another", "!(y0 = x0)"),
        ("third", "!(y0 = x0) & !(y0 = x1)"),
    )

    def _slot_atom(self, M, val, rel, terms):
        raise OracleError(f"no relation {rel!r} in the empty signature")

    def _complete(self, M, parts, env):
        atom = partial(self._slot_atom, M, None)
        if all(truth(p, env, atom) is True for p in parts):
            return []
        return None


# ---------------------------------------------------------------------------
# graphs


class _GraphTheory(TheoryPlugin):
    """Shared oracle for symmetric irreflexive graph-like theories. Fresh
    edges are chosen per unordered pair; _edges_ok vetoes forbidden
    configurations (triangle-freeness for the Henson theory)."""

    rel = "R"
    answer_fixed_by_diagram_and_order = True

    def _slot_atom(self, M, val, rel, terms):
        """val maps each unordered fresh pair (low, high) to its edge."""
        a, b = terms
        if a == b:
            return False  # irreflexive, and distinct fresh markers differ
        if a >= 0 and b >= 0:
            return M.has_fact(rel, (a, b))
        return val.get((min(a, b), max(a, b))) if val else None

    def _complete(self, M, parts, env):
        pairs: set[tuple[int, int]] = set()
        for p in parts:
            for atom in _rel_atoms(p):
                terms = tuple(env[v] for v in atom.args)
                a, b = terms
                if a != b and (a < 0 or b < 0):
                    pairs.add((min(a, b), max(a, b)))
        order = sorted(pairs)
        for choice in itertools.product((False, True), repeat=len(order)):
            val = dict(zip(order, choice))
            if not self._edges_ok(M, env, val):
                continue
            atom = partial(self._slot_atom, M, val)
            if all(truth(p, env, atom) is True for p in parts):
                facts = []
                for (a, b), v in sorted(val.items()):
                    if v:
                        facts.append((self.rel, (a, b)))
                        facts.append((self.rel, (b, a)))
                return facts
        return None

    def _edges_ok(self, M, env, val) -> bool:
        return True


def _rel_atoms(f: Formula) -> Iterable[RelAtom]:
    if isinstance(f, RelAtom):
        yield f
    elif isinstance(f, Not):
        yield from _rel_atoms(f.body)
    elif isinstance(f, (And, Or)):
        yield from _rel_atoms(f.left)
        yield from _rel_atoms(f.right)


class RandomGraphTheory(_GraphTheory):
    """The random graph: any fresh adjacency pattern at all is fine."""

    name = "random_graph"
    signature = Signature((("R", 2),))
    universal_texts = (
        ("irreflexive", "!R(x0, x0)"),
        ("symmetric", "!R(x0, x1) | R(x1, x0)"),
    )
    ae_texts = (
        ("neighbor", "R(x0, y0)"),
        ("non_neighbor", "!R(x0, y0) & !(y0 = x0)"),
        ("common_neighbor", "R(x0, y0) & R(x1, y0)"),
    )


class HensonTriangleFreeTheory(_GraphTheory):
    """The generic triangle-free graph. Same pattern search as the random
    graph, but candidate fresh edges must not close a triangle."""

    name = "henson_triangle_free"
    signature = Signature((("R", 2),))
    universal_texts = (
        ("irreflexive", "!R(x0, x0)"),
        ("symmetric", "!R(x0, x1) | R(x1, x0)"),
        ("triangle_free", "!R(x0, x1) | !R(x1, x2) | !R(x0, x2)"),
    )
    ae_texts = (
        ("neighbor", "R(x0, y0)"),
        ("non_neighbor", "!R(x0, y0) & !(y0 = x0)"),
        ("spread_pair", "R(x0, x1) | (R(y0, x0) & R(y0, x1))"),
    )

    def _edges_ok(self, M, env, val) -> bool:
        """No true fresh pair closes a triangle. A pair is (low, high), so
        its low end a is a marker, and a marker's edges, to old elements
        and to other markers alike, are exactly its true fresh pairs. So
        (a, b) closes a triangle just when b is adjacent to another of a's
        true partners, and only those are tried as the third vertex."""
        true_pairs = [p for p, v in val.items() if v]
        partners: dict[int, list[int]] = {}
        for a, b in true_pairs:
            partners.setdefault(a, []).append(b)
            partners.setdefault(b, []).append(a)
        # a fresh pair missing from val reads None: no edge
        edge = partial(self._slot_atom, M, val, "R")
        for a, b in true_pairs:
            for w in partners[a]:
                if w != b and edge((b, w)):
                    return False
        return True


# ---------------------------------------------------------------------------
# one equivalence relation with many classes


class GenericEquivalenceTheory(TheoryPlugin):
    """An equivalence relation with unboundedly many unbounded classes.
    Fresh points choose a class: one of the classes already mentioned by the
    constraint, or a brand-new class. Classes of M that the constraint never
    mentions behave exactly like a new class with respect to its atoms, so
    these options are exhaustive."""

    name = "generic_equivalence"
    signature = Signature((("E", 2),))
    universal_texts = (
        ("reflexive", "E(x0, x0)"),
        ("symmetric", "!E(x0, x1) | E(x1, x0)"),
        ("transitive", "!E(x0, x1) | !E(x1, x2) | E(x0, x2)"),
    )
    ae_texts = (
        ("classmate", "E(x0, y0) & !(y0 = x0)"),
        # eight new points in eight new classes, none of them x0's
        ("class_spread8", " & ".join(
            [f"!E(x0, y{i})" for i in range(8)]
            + [f"!E(y{i}, y{j})" for i, j in itertools.combinations(range(8), 2)]
        )),
        ("classmate_avoiding", "E(x0, y0) & !(y0 = x0) & !(y0 = x1)"),
    )

    def _class_label(self, M: FinStructure, e: int) -> tuple[str, int]:
        return ("old", min(M.neighbours("E", 1, e), default=e))

    def _slot_atom(self, M, val, rel, terms):
        """val maps each fresh marker to its class label."""
        a, b = terms
        if a == b:
            return True  # reflexive
        if a >= 0 and b >= 0:
            return M.has_fact(rel, (a, b))
        if not val:
            return None
        la = self._class_label(M, a) if a >= 0 else val.get(a)
        lb = self._class_label(M, b) if b >= 0 else val.get(b)
        if la is None or lb is None:
            return None
        return la == lb

    def _complete(self, M, parts, env):
        markers = sorted({t for t in env.values() if t < 0}, key=abs)
        mentioned = sorted({t for t in env.values() if t >= 0})
        old_labels = sorted({self._class_label(M, e) for e in mentioned})
        attrs: dict[int, tuple[str, int]] = {}
        atom = partial(self._slot_atom, M, attrs)

        def rec(j: int, new_used: int):
            if j == len(markers):
                if all(truth(p, env, atom) is True for p in parts):
                    return self._equiv_facts(M, markers, attrs)
                return None
            options: list[tuple[str, int]] = list(old_labels)
            options += [("new", t) for t in range(new_used + 1)]
            for label in options:
                attrs[markers[j]] = label
                bad = any(truth(p, env, atom) is False for p in parts)
                if not bad:
                    hit = rec(j + 1, max(new_used, label[1] + 1) if label[0] == "new" else new_used)
                    if hit is not None:
                        return hit
            del attrs[markers[j]]
            return None

        return rec(0, 0)

    def _equiv_facts(self, M, markers, attrs):
        facts = []
        for idx, m in enumerate(markers):
            label = attrs[m]
            facts.append(("E", (m, m)))
            if label[0] == "old":
                for u in sorted(M.neighbours("E", 1, label[1])):
                    facts.append(("E", (m, u)))
                    facts.append(("E", (u, m)))
            for m2 in markers[:idx]:
                if attrs[m2] == label:
                    facts.append(("E", (m, m2)))
                    facts.append(("E", (m2, m)))
        return facts


PLUGINS: dict[str, TheoryPlugin] = {
    p.name: p
    for p in (
        InfiniteSetTheory(),
        RandomGraphTheory(),
        GenericEquivalenceTheory(),
        HensonTriangleFreeTheory(),
    )
}


def get_plugin(name: str) -> TheoryPlugin:
    try:
        return PLUGINS[name]
    except KeyError:
        raise ValueError(f"unknown theory {name!r}; known: {', '.join(sorted(PLUGINS))}") from None
