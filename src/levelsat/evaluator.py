"""Evaluation of formulas on finite structures and definable-set counting.

The package's one formula walker and one search descent live here.
truth() evaluates a formula in Kleene's three-valued logic under an atom
function that may leave atoms undecided; evaluate() is its two-valued use on
a structure. _descend assigns variables left to right from the candidates it
is given and checks each conjunct at the depth where its last free variable
gets a value; that depth is worked out once per formula and variable order
and cached (_plan). backtrack() runs it on every top-level conjunct with
the caller's candidates, as the theory oracle's pattern search
(theory.TheoryPlugin._search) brings its own.

The one search stream, _stream, yields the tuples over V_cap that satisfy a
formula, lexicographic and each once. solutions() is the whole stream and
find_witness() its first tuple; witnessed() asks one stream for a first hit
for each parameter tuple, so its kept candidate lists serve them all. The
dividing pool, the tuples of b-bar's quantifier-free type over a-bar, is
solutions() of b-bar's diagram (dividing._type_formula).

row_witnessed() answers for a row, the tuples that share their first
parameter x0, when one y slot's ties, relation avoids and checked conjuncts
read no parameter but x0 and the later ones appear only in m avoids
!(y = x_j). Each drops at most one value, so more than m hits over x0's kept
list leave every tuple a witness: E(x0, y0) & !(y0 = x0) & !(y0 = x1) needs
two classmates of x0.

The stream's candidates (_candidates) narrow a slot y by the structure's
neighbour index in two ways, through top-level conjuncts whose other
variable is bound before y. A tie, R(v, y) or R(y, v), makes y range over
the neighbours of v, intersected over every tie, cut to V_cap and ascending.
While the structure is unchanged that list is kept per binding of the tie
variables: the class of x0 is cut to V_cap once per x0, not per (x0, x1). An
avoided atom, !R(u, y), !R(y, u) or !(y = u), then skips the neighbours of
u, or u itself, in the kept list by set lookups. Every value dropped fails
its conjunct, and the rest keep V_cap's order, so the hits and their order
are those of the plain scan. Neither kind of atom is checked again at the
leaves (_Plan.untied); backtrack checks them all. So class_spread8's eight
slots, which carry only avoided atoms, do not reject V_cap one element at a
time, and with one slot and no leaf check left the candidates are the hits.
Other atoms under Not, R(y, y), and atoms whose other variable is assigned
later narrow nothing.

A formula whose top level is an Or tree is searched branch by branch: each
disjunct gets its own plan, ties and candidates, and the branches' hits,
each stream lexicographic, are merged in order with equal tuples kept once.
A tuple satisfies the Or exactly when it satisfies some branch, so the hits
and their order are again those of the plain scan, and find_witness stops
at the first merged hit. Henson's spread_pair, R(x0, x1) | (R(y0, x0) &
R(y0, x1)), so costs the first id of V_cap or the intersection of two
neighbour sets. Atoms under an Or inside a conjunct still narrow nothing.
witnessed() needs no merge: a top-level Or has a witness when some branch
has one.

A DefinableSet packages a formula with its solution variables, parameter
bindings, and an optional level cap. Solutions are tuples over V_cap,
enumerated in lexicographic id order; counts are exact ints.

A tuple's atomic diagram, the truth of each equality and relation atom over
its positions, is enumerated in one place (_atoms). diagram() writes it as
literals, the form in which the construction embeds a finite structure and
the dividing search grows a fresh copy of a tuple over its parameters.
diag_key reads the same truths in the same order as a comparison key, one
block at a time by set lookups: the equalities, then each relation's facts
in signature order. A test checks it against _atoms.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, replace
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
    """How a formula is searched for one variable order. due[i]
    holds the top-level conjuncts checked once order[i-1] has a value
    (due[0]: those env alone binds); outside holds the free variables env
    must bind; ties[i] lists (rel, pos, v) for each top-level atom with v at
    position pos and order[i] at the other, v bound before order[i];
    avoid[i] lists (rel, pos, u) alike for each top-level negated atom
    !R(u, y) or !R(y, u), and (None, 0, u) for each !(y = u) or !(u = y),
    y being order[i] and u bound before it; untied is due without the atoms
    of ties and avoid, which the stream's candidates satisfy (backtrack
    checks due, _stream untied); branches holds the disjuncts of a
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


def _candidates(
    structure: FinStructure, plan: _Plan, cap: Optional[LevelOrdinal]
) -> Callable[[int, dict[str, int]], Iterable[int]]:
    """candidates(i, env): slot i's values over V_cap, ascending, narrowed
    by its ties and avoided atoms (module docstring)."""
    ids, nbrs, level_of = structure.v_ids(cap), structure.neighbours, structure.level_of
    ties, avoid = plan.ties, plan.avoid
    keys = [operator.itemgetter(*[v for _, _, v in t]) if t else None for t in ties]
    memo: list[dict] = [{} for _ in ties]

    def candidates(i: int, env: dict[str, int]) -> Iterable[int]:
        key = keys[i](env) if keys[i] else None
        hit = memo[i].get(key)
        if hit is None:
            sets = sorted((nbrs(rel, pos, env[v]) for rel, pos, v in ties[i]), key=len)
            if not sets:
                hit = ids
            elif len(sets[0]) >= len(ids):
                hit = [e for e in ids if all(e in s for s in sets)]
            else:
                # a fresh list: a build grows the index's own sets in place
                hit = sorted(sets[0].intersection(*sets[1:]))
                if cap is not None:
                    hit = [e for e in hit if level_of(e) <= cap]
            memo[i][key] = hit
        # each skip is bound now: _descend reassigns env while hit is read
        for rel, pos, u in avoid[i]:
            skip = env[u].__eq__ if rel is None else nbrs(rel, pos, env[u]).__contains__
            hit = itertools.filterfalse(skip, hit)
        return hit

    return candidates


def _stream(
    structure: FinStructure,
    formula: Formula,
    bound: Iterable[str],
    order: tuple[str, ...],
    cap: Optional[LevelOrdinal],
) -> Callable[[dict[str, int]], Iterator[tuple[int, ...]]]:
    """hits(env): the one search stream, every tuple over V_cap for the
    variables in order that satisfies formula under env, lexicographic and
    each once (module docstring). env binds the variables in bound, which
    are checked here: EvalError if one is left free. hits assigns the slots
    in env as it runs, so pass it a dict of your own."""
    plan = _plan(formula, order)
    _check_bound(plan, bound)
    if plan.branches:
        streams = [_stream(structure, b, bound, order, cap) for b in plan.branches]
        # each branch gets its own env: the merge interleaves their descents
        return lambda env: (
            t for t, _ in itertools.groupby(heapq.merge(*[s(dict(env)) for s in streams]))
        )
    candidates, checks = _candidates(structure, plan, cap), plan.untied
    atom, domain = structure.has_fact, structure.v_ids
    first, direct = checks[0], len(order) == 1 and not checks[1]

    def hits(env: dict[str, int]) -> Iterator[tuple[int, ...]]:
        if first and any(truth(part, env, atom, domain) is False for part in first):
            return iter(())
        if direct:
            # one slot with nothing left to check at its leaf
            return zip(candidates(0, env))
        if not order:
            return iter(((),))
        found = _descend(0, env, order, checks, candidates, atom, domain)
        return (tuple([hit[v] for v in order]) for hit in found)

    return hits


def solutions(structure: FinStructure, dset: DefinableSet) -> list[tuple[int, ...]]:
    """All solution tuples, lexicographic in ids. Unbound leftover variables
    raise EvalError."""
    env = dset.env()
    return list(_stream(structure, dset.formula, env, dset.vars, dset.cap)(env))


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
    return next(_stream(structure, formula, env, witness_vars, cap)(dict(env)), None)


def witnessed(
    structure: FinStructure,
    formula: Formula,
    x_vars: tuple[str, ...],
    y_vars: tuple[str, ...],
    cap: Optional[LevelOrdinal],
) -> Callable[[tuple[int, ...]], bool]:
    """test(a_bar) is whether find_witness(structure, formula, env, y_vars,
    cap) finds a witness, env binding x_vars to a_bar, while the structure
    is unchanged: the first hit of one stream, whose kept candidate lists
    serve every a_bar. EvalError if a variable is left free. A top-level Or
    has a witness when some branch has one: the question needs no merge."""
    plan = _plan(formula, y_vars)
    if plan.branches:
        _check_bound(plan, x_vars)
        tests = [witnessed(structure, b, x_vars, y_vars, cap) for b in plan.branches]
        return lambda a_bar: any(test(a_bar) for test in tests)
    hits = _stream(structure, formula, x_vars, y_vars, cap)
    return lambda a_bar: next(hits(dict(zip(x_vars, a_bar))), None) is not None


def row_witnessed(structure, formula, x_vars, y_vars, cap) -> Optional[Callable[[int], bool]]:
    """settles(a0), from witnessed's arguments: whether the row rule (module
    docstring) gives every a_bar with a_bar[0] == a0 a witness while the
    structure is unchanged; None where it does not apply, as to one x."""
    plan = _plan(formula, y_vars)
    _check_bound(plan, x_vars)
    if len(y_vars) != 1 or len(x_vars) < 2 or plan.branches:
        return None
    x0, reads = x_vars[0], {x_vars[0], y_vars[0]}
    own = tuple(a for a in plan.avoid[0] if a[2] == x0)
    later = [rel for rel, _, u in plan.avoid[0] if u != x0]
    if any(v != x0 for _, _, v in plan.ties[0]) or any(rel is not None for rel in later):
        return None
    if any(not free_vars(part) <= reads for part in plan.untied[0] + plan.untied[1]):
        return None
    candidates, m = _candidates(structure, replace(plan, avoid=(own,)), cap), len(later)

    def settles(a0: int) -> bool:
        env, atom, domain = {x0: a0}, structure.has_fact, structure.v_ids
        if any(truth(part, env, atom, domain) is False for part in plan.untied[0]):
            return False
        hits = _descend(0, env, y_vars, plan.untied, candidates, atom, domain)
        return next(itertools.islice(hits, m, None), None) is not None

    return settles


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
    of their positions.

    The same truths in _atoms' order, read a block at a time by set
    lookups: the equalities, then each relation's facts over
    product(tup, repeat=arity) in signature order."""
    key = [tup[i] == tup[j] for j in range(len(tup)) for i in range(j)]
    for rel, ar in structure.signature.relations:
        if ar:  # _atoms gives no nullary atom: it mentions no position
            key += map(structure.facts(rel).__contains__, itertools.product(tup, repeat=ar))
    return tuple(key)


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
