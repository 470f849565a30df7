"""Evaluation of formulas on finite structures and definable-set counting.

The package's one formula walker and one backtracking search live here.
truth() evaluates a formula in Kleene's three-valued logic under an atom
function that may leave atoms undecided; evaluate() is its two-valued use on
a structure. backtrack() assigns variables left to right from candidates the
caller supplies and prunes a branch as soon as a top-level conjunct is
False; the theory oracle's pattern search (theory.TheoryPlugin._search)
and the one search stream, _hits, run on it. Where each conjunct is checked
is worked out once per formula and variable order and cached.

_hits yields the tuples over V_cap that satisfy a formula, lexicographic and
each once; solutions() is the whole stream and find_witness() its first
tuple. The dividing pool, the tuples of b-bar's quantifier-free type over
a-bar, is solutions() of b-bar's diagram (dividing._type_formula).

_hits takes a slot's candidates from the structure's neighbour index when
a positive binary atom that is itself a top-level conjunct, R(v, y) or
R(y, v), ties the slot y to a variable v bound before it: the slot then
ranges over the neighbours of v, intersected over every such atom, cut to
V_cap and ascending. Every value this drops fails that conjunct, and the
rest keep V_cap's order, so the hits and their order are those of the
plain scan. In this search, atoms under Not, R(y, y), and atoms whose other
variable is assigned later narrow nothing.

A formula whose top level is an Or tree is searched branch by branch: each
disjunct gets its own plan, ties and candidates, and the branches' hits,
each stream lexicographic, are merged in order with equal tuples kept once.
A tuple satisfies the Or exactly when it satisfies some branch, so the hits
and their order are again those of the plain scan, and find_witness stops
at the first merged hit. Henson's spread_pair, R(x0, x1) | (R(y0, x0) &
R(y0, x1)), so costs the first id of V_cap or the intersection of two
neighbour sets. Atoms under an Or inside a conjunct still narrow nothing.

witnessed() answers find_witness's yes-or-no question for every parameter
tuple of one entry's turn, on the same plan, index and descent. While the
structure is unchanged, a tied slot's candidates are kept per binding of its
tie variables (the class of x0 is cut to V_cap once per x0, not per (x0,
x1)), and the tying atoms, which every index candidate satisfies, are not
checked again; backtrack keeps them, as the oracle brings its own candidates.
The test also narrows a slot y by each top-level negated atom !R(u, y),
!R(y, u) or !(y = u) whose other variable u is bound before y: it skips the
neighbours of u, or u itself, in the kept list by set lookups, and does not
check those atoms at the leaf. So class_spread8's eight slots, which carry
only such atoms, no longer reject V_cap one element at a time. The kept
lists stay keyed by the tie variables alone. With one slot and no leaf
check left, the first candidate that survives is the answer. _hits and
backtrack still check negated atoms at the leaves. A top-level Or has a
witness when some branch has one: no merge.

A DefinableSet packages a formula with its solution variables, parameter
bindings, and an optional level cap. Solutions are tuples over V_cap,
enumerated in lexicographic id order; counts are exact ints.

A tuple's atomic diagram, the truth of each equality and relation atom over
its positions, is enumerated in one place (_atoms). diag_key reads it as a
comparison key and diagram() writes it as literals, the form in which the
construction embeds a finite structure and the dividing search grows a
fresh copy of a tuple over its parameters.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .formula import (
    And,
    Eq,
    Exists,
    Formula,
    LevelOrdinal,
    Not,
    Or,
    RelAtom,
    conjuncts,
    disjuncts,
    free_vars,
)
from .structures import FinStructure

Atom = Callable[[str, tuple[int, ...]], Optional[bool]]
Domain = Callable[[Optional[LevelOrdinal]], Iterable[int]]


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class DefinableSet:
    """phi(vars; params) relativized to V_cap. cap None means the whole
    universe. params maps the remaining free variables to element ids."""

    formula: Formula
    vars: tuple[str, ...]
    params: tuple[tuple[str, int], ...] = ()
    cap: Optional[LevelOrdinal] = None

    def env(self) -> dict[str, int]:
        return dict(self.params)


def truth(
    formula: Formula, env: dict[str, int], atom: Atom, domain: Optional[Domain] = None
) -> Optional[bool]:
    """Kleene three-valued truth of formula under env: True, False, or None
    when the undecided atoms leave it open. atom(rel, ids) gives the truth
    of a relation atom, None while undecided; domain(cap) gives the range of
    an Exists with that level cap (None: no cap). An unbound variable raises
    KeyError."""
    if isinstance(formula, RelAtom):
        return atom(formula.rel, tuple([env[a] for a in formula.args]))
    if isinstance(formula, Eq):
        return env[formula.left] == env[formula.right]
    if isinstance(formula, Not):
        v = truth(formula.body, env, atom, domain)
        return None if v is None else not v
    if isinstance(formula, (And, Or)):
        decisive = isinstance(formula, Or)  # the value one side settles alone
        left = truth(formula.left, env, atom, domain)
        if left is decisive:
            return decisive
        right = truth(formula.right, env, atom, domain)
        if right is decisive:
            return decisive
        return None if left is None or right is None else not decisive
    if isinstance(formula, Exists):
        if domain is None:
            raise EvalError(f"no domain for the quantifier in {formula!r}")
        inner = dict(env)
        out: Optional[bool] = False
        for ids in itertools.product(domain(formula.level_cap), repeat=len(formula.bound)):
            inner.update(zip(formula.bound, ids))
            v = truth(formula.body, inner, atom, domain)
            if v:
                return True
            if v is None:
                out = None
        return out
    raise TypeError(f"not a formula: {formula!r}")


def evaluate(structure: FinStructure, formula: Formula, env: dict[str, int]) -> bool:
    """Truth of formula under env. Every free variable must be bound; bound
    variables of an Exists range over its own cap (or the whole universe)."""
    try:
        return truth(formula, env, structure.has_fact, structure.v_ids)
    except KeyError as e:
        if e.args[0] not in free_vars(formula):
            raise  # not a variable: an unknown relation name
        raise EvalError(f"unbound variable {e.args[0]!r}") from None


@dataclass(frozen=True)
class _Plan:
    """How backtrack searches a formula for one variable order. due[i]
    holds the top-level conjuncts checked once order[i-1] has a value
    (due[0]: those env alone binds); outside holds the free variables env
    must bind; ties[i] lists (rel, pos, v) for each top-level atom with v at
    position pos and order[i] at the other, v bound before order[i];
    avoid[i] lists (rel, pos, u) alike for each top-level negated atom
    !R(u, y) or !R(y, u), and (None, 0, u) for each !(y = u) or !(u = y),
    y being order[i] and u bound before it; untied is due without the atoms
    of ties and avoid (witnessed); branches holds the disjuncts of a
    top-level Or, () for any other formula."""

    due: tuple[tuple[Formula, ...], ...]
    outside: frozenset[str]
    ties: tuple[tuple[tuple[str, int, str], ...], ...]
    avoid: tuple[tuple[tuple[Optional[str], int, str], ...], ...]
    untied: tuple[tuple[Formula, ...], ...]
    branches: tuple[Formula, ...]


# Keyed by the formula's identity, and holding the formula so that the id
# stays its own: callers pass the same few formula objects thousands of times,
# and hashing a formula walks all of it. Cleared when full.
_PLANS: dict[tuple[int, tuple[str, ...]], tuple[Formula, _Plan]] = {}
_PLANS_MAX = 256


def _plan(formula: Formula, order: tuple[str, ...]) -> _Plan:
    key = (id(formula), tuple(order))
    hit = _PLANS.get(key)
    if hit is not None and hit[0] is formula:
        return hit[1]
    depth = {v: i + 1 for i, v in enumerate(order)}
    due: list[list[Formula]] = [[] for _ in range(len(order) + 1)]
    untied: list[list[Formula]] = [[] for _ in range(len(order) + 1)]
    ties: list[list[tuple[str, int, str]]] = [[] for _ in order]
    avoid: list[list[tuple[Optional[str], int, str]]] = [[] for _ in order]
    outside: set[str] = set()
    for part in conjuncts(formula):
        fv = free_vars(part)
        outside |= fv - depth.keys()
        d = max((depth[v] for v in fv if v in depth), default=0)
        due[d].append(part)
        # the atom's other variable is bound first, so this slot, d, is its last
        negated = isinstance(part, Not) and isinstance(part.body, (RelAtom, Eq))
        if isinstance(part, RelAtom) and (links := _links(part, depth)):
            ties[d - 1] += links
        elif negated and (links := _links(part.body, depth)):
            avoid[d - 1] += links
        else:
            untied[d].append(part)
    branches = disjuncts(formula) if isinstance(formula, Or) else ()
    due, ties, avoid, untied = (tuple(map(tuple, x)) for x in (due, ties, avoid, untied))
    plan = _Plan(due, frozenset(outside), ties, avoid, untied, branches)
    if len(_PLANS) >= _PLANS_MAX:
        _PLANS.clear()
    _PLANS[key] = (formula, plan)
    return plan


def _links(atom: RelAtom | Eq, depth: dict[str, int]) -> list[tuple[Optional[str], int, str]]:
    """(rel, pos, v) for a binary atom with v at position pos, when v is
    bound before the variable at the other position; rel is None for an
    equality. [] for a relation atom of another arity."""
    if isinstance(atom, Eq):
        rel, args = None, (atom.left, atom.right)
    else:
        rel, args = atom.rel, atom.args
    if len(args) != 2:
        return []
    return [
        (rel, pos, v) for pos, v in enumerate(args)
        if depth.get(v, 0) < depth.get(args[1 - pos], 0)
    ]


def backtrack(
    formula: Formula,
    env: dict[str, int],
    order: tuple[str, ...],
    candidates: Callable[[int, dict[str, int]], Iterable[int]],
    atom: Atom,
    domain: Optional[Domain] = None,
) -> Iterator[dict[str, int]]:
    """Every assignment of the variables in order, extending env, under
    which no top-level conjunct of formula is False, in candidate order.
    order[i] takes its values from candidates(i, env), called with exactly
    env and order[:i] assigned. Each conjunct is checked at the depth where
    its last free variable gets a value (the cached plan); a conjunct bound
    by env alone is checked first. The yielded dict is reused: copy what you
    keep before asking for the next one. Raises EvalError if a free variable
    is neither in env nor in order."""
    plan = _plan(formula, order)
    _check_bound(plan, env)
    env = dict(env)
    if any(truth(part, env, atom, domain) is False for part in plan.due[0]):
        return
    if order:
        yield from _descend(0, env, order, plan.due, candidates, atom, domain)
    else:
        yield env


def _check_bound(plan: _Plan, bound: Iterable[str]) -> None:
    unbound = plan.outside.difference(bound)
    if unbound:
        raise EvalError(f"unbound variables {sorted(unbound)}")


def _descend(i, env, order, due, candidates, atom, domain) -> Iterator[dict[str, int]]:
    """backtrack from slot i on. A module-level function, not a closure: a
    closure that calls itself is a reference cycle, which would keep the
    structure behind atom alive until the next cyclic collection."""
    var, parts, last = order[i], due[i + 1], i + 1 == len(order)
    for e in candidates(i, env):
        env[var] = e
        for part in parts:
            if truth(part, env, atom, domain) is False:
                break
        else:
            # the leaf yields in place: one generator per level, not per hit
            if last:
                yield env
            else:
                yield from _descend(i + 1, env, order, due, candidates, atom, domain)
    env.pop(var, None)


def _indexed(
    structure: FinStructure, plan: _Plan, cap: Optional[LevelOrdinal]
) -> Callable[[int, dict[str, int]], Iterable[int]]:
    """backtrack candidates over V_cap, narrowed by the neighbour index where
    the plan ties a slot to bound variables (module docstring)."""
    ids = structure.v_ids(cap)
    ties = plan.ties

    def candidates(i: int, env: dict[str, int]) -> Iterable[int]:
        if not ties[i]:
            return ids
        sets = sorted((structure.neighbours(rel, pos, env[v]) for rel, pos, v in ties[i]), key=len)
        if len(sets[0]) >= len(ids):
            return [e for e in ids if all(e in s for s in sets)]
        # a fresh list: a build grows the index's own sets in place
        hits = sets[0].intersection(*sets[1:])
        if cap is not None:
            hits = [e for e in hits if structure.level_of(e) <= cap]
        return sorted(hits)

    return candidates


def _hits(
    structure: FinStructure,
    formula: Formula,
    env: dict[str, int],
    order: tuple[str, ...],
    cap: Optional[LevelOrdinal],
) -> Iterator[tuple[int, ...]]:
    """The one search stream: every tuple over V_cap, for the variables in
    order, that satisfies formula under env, lexicographic and each once
    (module docstring). A top-level Or checks env against every branch's
    free variables before any branch is searched, so an unbound variable
    raises EvalError here; otherwise on the first step."""
    plan = _plan(formula, order)
    if plan.branches:
        _check_bound(plan, env)
        streams = [_hits(structure, b, env, order, cap) for b in plan.branches]
        return (t for t, _ in itertools.groupby(heapq.merge(*streams)))
    hits = backtrack(
        formula, env, order, _indexed(structure, plan, cap),
        structure.has_fact, structure.v_ids,
    )
    return (tuple([hit[v] for v in order]) for hit in hits)


def solutions(structure: FinStructure, dset: DefinableSet) -> list[tuple[int, ...]]:
    """All solution tuples, lexicographic in ids. Unbound leftover variables
    raise EvalError."""
    return list(_hits(structure, dset.formula, dset.env(), dset.vars, dset.cap))


def count(structure: FinStructure, dset: DefinableSet) -> int:
    return len(solutions(structure, dset))


def find_witness(
    structure: FinStructure,
    formula: Formula,
    env: dict[str, int],
    witness_vars: tuple[str, ...],
    cap: Optional[LevelOrdinal],
) -> Optional[tuple[int, ...]]:
    """First tuple over V_cap (lexicographic) satisfying formula, or None:
    the first of solutions() of the capped set, without computing the rest."""
    return next(_hits(structure, formula, env, witness_vars, cap), None)


def witnessed(
    structure: FinStructure,
    formula: Formula,
    x_vars: tuple[str, ...],
    y_vars: tuple[str, ...],
    cap: Optional[LevelOrdinal],
) -> Callable[[tuple[int, ...]], bool]:
    """test(a_bar) is whether find_witness(structure, formula, env, y_vars,
    cap) finds a witness, env binding x_vars to a_bar, while the structure
    is unchanged. A slot's candidates are its kept index list less the
    elements its avoided atoms rule out (module docstring). EvalError if a
    variable is left free."""
    plan = _plan(formula, y_vars)
    _check_bound(plan, x_vars)
    if plan.branches:
        tests = [witnessed(structure, b, x_vars, y_vars, cap) for b in plan.branches]
        return lambda a_bar: any(test(a_bar) for test in tests)
    narrowed, checks = _indexed(structure, plan, cap), plan.untied
    memo: list[dict[tuple[int, ...], Iterable[int]]] = [{} for _ in y_vars]
    atom, domain, nbrs = structure.has_fact, structure.v_ids, structure.neighbours
    # one slot with nothing left to check at its leaf: any candidate is a witness
    direct = len(y_vars) == 1 and not checks[1]

    def candidates(i: int, env: dict[str, int]) -> Iterable[int]:
        key = tuple([env[v] for _, _, v in plan.ties[i]])
        hit = memo[i].get(key)
        if hit is None:
            hit = memo[i][key] = narrowed(i, env)
        # each skip is bound now: _descend reassigns env while hit is read
        for rel, pos, u in plan.avoid[i]:
            skip = env[u].__eq__ if rel is None else nbrs(rel, pos, env[u]).__contains__
            hit = itertools.filterfalse(skip, hit)
        return hit

    def test(a_bar: tuple[int, ...]) -> bool:
        env = dict(zip(x_vars, a_bar))
        if any(truth(part, env, atom, domain) is False for part in checks[0]):
            return False
        if direct:
            hits = candidates(0, env)
        else:
            hits = _descend(0, env, y_vars, checks, candidates, atom, domain) if y_vars else [env]
        return next(iter(hits), None) is not None

    return test


def _atoms(
    structure: FinStructure, ids: tuple[int, ...], n_old: int
) -> Iterator[tuple[Optional[str], tuple[int, ...], bool]]:
    """The atomic diagram of ids, atom by atom: (None, (i, j), ids[i] ==
    ids[j]) for each pair of positions i < j, then (rel, positions, fact)
    for each relation and each tuple of positions. Only the atoms that
    mention a position >= n_old are yielded, so never a nullary one."""
    n = len(ids)
    for j in range(n_old, n):
        for i in range(j):
            yield None, (i, j), ids[i] == ids[j]
    for rel, ar in structure.signature.relations:
        for pos in itertools.product(range(n), repeat=ar):
            if max(pos, default=-1) >= n_old:
                yield rel, pos, structure.has_fact(rel, tuple([ids[p] for p in pos]))


def diag_key(structure: FinStructure, tup: tuple[int, ...]) -> tuple:
    """Atomic diagram of a tuple as a comparison key: the truth of every
    atom over its positions (_atoms). Two tuples of one length get the same
    key iff they satisfy the same quantifier-free formulas in the variables
    of their positions."""
    return tuple([holds for _, _, holds in _atoms(structure, tup, 0)])


def diagram(
    structure: FinStructure, ids: tuple[int, ...], names: tuple[str, ...], n_old: int
) -> list[Formula]:
    """The atomic diagram of ids as literals over names, names[i] standing
    for ids[i]: each atom that mentions a position >= n_old, negated where
    it fails. ids satisfy the conjunction, and a tuple agreeing with ids on
    the first n_old positions satisfies it iff it has ids' diag_key."""
    lits: list[Formula] = []
    for rel, pos, holds in _atoms(structure, ids, n_old):
        args = tuple([names[p] for p in pos])
        atom = Eq(*args) if rel is None else RelAtom(rel, args)
        lits.append(atom if holds else Not(atom))
    return lits


def qf_type_equal(
    structure: FinStructure,
    left: tuple[int, ...],
    right: tuple[int, ...],
    over: tuple[int, ...] = (),
) -> bool:
    """Whether left and right satisfy the same quantifier-free formulas with
    parameters from `over`. Exact: compares atomic diagrams of over+left vs
    over+right, which determine all quantifier-free truth."""
    if len(left) != len(right):
        return False
    return diag_key(structure, over + left) == diag_key(structure, over + right)
