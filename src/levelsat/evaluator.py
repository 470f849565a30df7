"""Evaluation of formulas on finite structures and definable-set counting.

The package's one formula walker and one backtracking search live here.
truth() evaluates a formula in Kleene's three-valued logic under an atom
function that may leave atoms undecided; evaluate() is its two-valued use on
a structure. backtrack() assigns variables left to right from candidates the
caller supplies and prunes a branch as soon as a top-level conjunct is
False; find_witness, solutions and the theory oracle's pattern search
(theory.TheoryPlugin._search) all run on it.

A DefinableSet packages a formula with its solution variables, parameter
bindings, and an optional level cap. Solutions are tuples over V_cap,
enumerated in lexicographic id order; counts are exact ints.
"""

from __future__ import annotations

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
    its last free variable gets a value, worked out once before the search;
    a conjunct bound by env alone is checked first. The yielded dict is
    reused: copy what you keep before asking for the next one. Raises
    EvalError if a free variable is neither in env nor in order."""
    env = dict(env)
    depth = {v: i + 1 for i, v in enumerate(order)}
    due: list[list[Formula]] = [[] for _ in range(len(order) + 1)]
    for part in conjuncts(formula):
        fv = free_vars(part)
        unbound = fv - env.keys() - depth.keys()
        if unbound:
            raise EvalError(f"unbound variables {sorted(unbound)}")
        due[max((depth[v] for v in fv if v in depth), default=0)].append(part)

    def rec(i: int) -> Iterator[dict[str, int]]:
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
                    yield from rec(i + 1)
        env.pop(var, None)

    if any(truth(part, env, atom, domain) is False for part in due[0]):
        return
    if order:
        yield from rec(0)
    else:
        yield env


def solutions(structure: FinStructure, dset: DefinableSet) -> list[tuple[int, ...]]:
    """All solution tuples, lexicographic in ids. Unbound leftover variables
    raise EvalError."""
    ids = structure.v_ids(dset.cap)
    hits = backtrack(
        dset.formula, dset.env(), dset.vars, lambda *_: ids,
        structure.has_fact, structure.v_ids,
    )
    return [tuple(env[v] for v in dset.vars) for env in hits]


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
    ids = structure.v_ids(cap)
    hits = backtrack(
        formula, env, witness_vars, lambda *_: ids, structure.has_fact, structure.v_ids
    )
    for hit in hits:
        return tuple(hit[v] for v in witness_vars)
    return None


def diag_key(structure: FinStructure, tup: tuple[int, ...]) -> tuple:
    """Atomic diagram of a tuple: equality pattern plus the truth of every
    relation atom over positions. Two tuples get the same key iff they satisfy
    the same quantifier-free formulas in the variables of their positions."""
    eqpat = tuple(
        tuple(int(tup[i] == tup[j]) for j in range(len(tup))) for i in range(len(tup))
    )
    rows = []
    for rel, ar in structure.signature.relations:
        cells = []
        for pos in itertools.product(range(len(tup)), repeat=ar):
            cells.append(int(structure.has_fact(rel, tuple(tup[p] for p in pos))))
        rows.append((rel, tuple(cells)))
    return (eqpat, tuple(rows))


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
