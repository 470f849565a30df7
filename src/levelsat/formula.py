"""Quantifier-free formulas, level ordinals, and schedule enumeration.

Formulas are immutable trees over a relational signature with equality.
Levels are ordinals below omega+omega, written ``fin<k>`` and ``omega+<k>``.
A schedule is a deterministic, fair stream of (formula, variable split,
level) entries that the staged construction consumes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional


# ---------------------------------------------------------------------------
# levels


class LevelOrdinal(tuple):
    """An ordinal below omega+omega: fin(k) or omega_plus(k), held as the
    tuple (tag, index).

    Order, equality and hash are the tuple's own, so comparing two levels
    makes no Python call. The order is total: "fin" < "omega" as text puts
    every fin(_) before every omega_plus(_), and __new__ admits no other
    tag. A level equals the plain tuple (tag, index). successor() stays on
    its own side of omega; nothing ever crosses up.
    """

    __slots__ = ()

    def __new__(cls, tag: str, index: int) -> "LevelOrdinal":
        if tag not in ("fin", "omega"):
            raise ValueError(f"bad level tag {tag!r}")
        if index < 0:
            raise ValueError("level index must be >= 0")
        return tuple.__new__(cls, (tag, index))

    def __getnewargs__(self) -> tuple[str, int]:
        # copy and pickle rebuild a level as LevelOrdinal(tag, index)
        return tuple(self)

    tag = property(operator.itemgetter(0), doc='"fin" or "omega"')
    index = property(operator.itemgetter(1))

    def successor(self) -> "LevelOrdinal":
        return LevelOrdinal(self.tag, self.index + 1)

    def render(self) -> str:
        if self.tag == "fin":
            return f"fin{self.index}"
        return f"omega+{self.index}"

    def __repr__(self) -> str:
        return f"LevelOrdinal(tag={self.tag!r}, index={self.index!r})"

    def __str__(self) -> str:
        return self.render()


def fin(k: int) -> LevelOrdinal:
    return LevelOrdinal("fin", k)


def omega_plus(k: int) -> LevelOrdinal:
    return LevelOrdinal("omega", k)


OMEGA = omega_plus(0)

_LEVEL_RE = re.compile(r"^(?:fin(\d+)|omega(?:\+(\d+))?)$")


def parse_level(text: str) -> LevelOrdinal:
    """Inverse of LevelOrdinal.render; also accepts bare "omega" for omega+0."""
    m = _LEVEL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a level: {text!r}")
    if m.group(1) is not None:
        return fin(int(m.group(1)))
    return omega_plus(int(m.group(2) or 0))


def level_at(i: int) -> LevelOrdinal:
    """The i-th level in the interleaved stream fin0, omega+0, fin1, omega+1, ..."""
    return fin(i // 2) if i % 2 == 0 else omega_plus(i // 2)


# ---------------------------------------------------------------------------
# signature and AST


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities. Equality is always available."""

    relations: tuple[tuple[str, int], ...]

    def arity(self, name: str) -> int:
        for rel, ar in self.relations:
            if rel == name:
                return ar
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(rel == name for rel, _ in self.relations)

    def names(self) -> tuple[str, ...]:
        return tuple(rel for rel, _ in self.relations)


class Formula:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class RelAtom(Formula):
    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    """Existential prefix. level_cap of None means unrestricted; otherwise the
    bound variables range over V_{level_cap}."""

    bound: tuple[str, ...]
    body: Formula
    level_cap: Optional[LevelOrdinal] = None


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, RelAtom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Exists):
        return free_vars(f.body) - frozenset(f.bound)
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (RelAtom, Eq)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


def rename_vars(f: Formula, mapping: dict[str, str]) -> Formula:
    """Capture-naive variable renaming; callers must keep bound names clear."""
    def r(v: str) -> str:
        return mapping.get(v, v)

    if isinstance(f, RelAtom):
        return RelAtom(f.rel, tuple(r(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(r(f.left), r(f.right))
    if isinstance(f, Not):
        return Not(rename_vars(f.body, mapping))
    if isinstance(f, And):
        return And(rename_vars(f.left, mapping), rename_vars(f.right, mapping))
    if isinstance(f, Or):
        return Or(rename_vars(f.left, mapping), rename_vars(f.right, mapping))
    if isinstance(f, Exists):
        inner = {k: v for k, v in mapping.items() if k not in f.bound}
        return Exists(f.bound, rename_vars(f.body, inner), f.level_cap)
    raise TypeError(f"not a formula: {f!r}")


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    """Flatten a top-level And tree. Non-And formulas are their own conjunct."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return (f,)


def disjuncts(f: Formula) -> tuple[Formula, ...]:
    """Flatten a top-level Or tree. Non-Or formulas are their own disjunct."""
    if isinstance(f, Or):
        return disjuncts(f.left) + disjuncts(f.right)
    return (f,)


def nnf(f: Formula) -> Formula:
    """f with every Not pushed inward through And and Or (De Morgan) and
    double negations dropped, so a Not is left only on an atom, an Eq or an
    Exists, whose body is kept as it is. Equivalent to f in two- and
    three-valued (Kleene) logic."""
    if isinstance(f, Not):
        body = f.body
        if isinstance(body, Not):
            return nnf(body.body)
        if isinstance(body, And):
            return Or(nnf(Not(body.left)), nnf(Not(body.right)))
        if isinstance(body, Or):
            return And(nnf(Not(body.left)), nnf(Not(body.right)))
        return f
    if isinstance(f, And):
        return And(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return Or(nnf(f.left), nnf(f.right))
    return f


def conjoin(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


_VAR_KEY_RE = re.compile(r"^([a-z_]+?)(\d*)$")


def var_sort_key(name: str) -> tuple[str, int, str]:
    """Sort x2 before x10; falls back to plain text for odd names."""
    m = _VAR_KEY_RE.match(name)
    if m and m.group(2):
        return (m.group(1), int(m.group(2)), name)
    return (name, -1, name)


def roles(f: Formula) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Free variables by role, each in var_sort_key order: x* are solution
    slots, y* are instance slots, anything else is a fixed parameter."""
    xs, ys, rest = [], [], []
    for v in sorted(free_vars(f), key=var_sort_key):
        if v.startswith("x"):
            xs.append(v)
        elif v.startswith("y"):
            ys.append(v)
        else:
            rest.append(v)
    return tuple(xs), tuple(ys), tuple(rest)


def split_vars(f: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split free variables for an axiom: y* are witnesses (the exists side),
    everything else are parameters (the for-all side), x* and the rest alike."""
    xs, ys, rest = roles(f)
    return tuple(sorted(xs + rest, key=var_sort_key)), ys


# ---------------------------------------------------------------------------
# rendering

# precedence: Or(1) < And(2) < Not(3) < atoms. Exists only at prefix position.


def render(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, RelAtom):
        return f"{f.rel}({', '.join(f.args)})"
    if isinstance(f, Eq):
        s = f"{f.left} = {f.right}"
        return f"({s})" if ctx >= 3 else s
    if isinstance(f, Not):
        body = _render(f.body, 3)
        if not isinstance(f.body, (RelAtom, Not)):
            # Eq/And/Or/Exists under ! always get parens, even if precedence
            # would let Eq squeak through; "!x = y" reads wrong.
            if not (body.startswith("(") and body.endswith(")")):
                body = f"({body})"
        return "!" + body
    if isinstance(f, And):
        s = f"{_render(f.left, 2)} & {_render(f.right, 3)}"
        return f"({s})" if ctx >= 3 else s
    if isinstance(f, Or):
        s = f"{_render(f.left, 1)} | {_render(f.right, 2)}"
        return f"({s})" if ctx >= 2 else s
    if isinstance(f, Exists):
        head = "exists " + ", ".join(f.bound)
        if f.level_cap is not None:
            head += f" in {f.level_cap.render()}"
        s = f"{head}. {_render(f.body, 0)}"
        return f"({s})" if ctx >= 1 else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    """Syntax or signature error with a character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_+]*)|([(),.=&|!]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("word", m.group(1), m.start(1)))
        else:
            tokens.append(("sym", m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, signature: Signature) -> None:
        self.text = text
        self.sig = signature
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_sym(self, sym: str) -> None:
        kind, val, pos = self.take()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val or 'end of input'!r}", pos)

    def formula(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "word" and val == "exists":
            self.take()
            bound = [self.variable()]
            while self.peek()[:2] == ("sym", ","):
                self.take()
                bound.append(self.variable())
            cap = None
            if self.peek()[:2] == ("word", "in"):
                self.take()
                kind, val, pos = self.take()
                if kind != "word":
                    raise ParseError("expected a level after 'in'", pos)
                try:
                    cap = parse_level(val)
                except ValueError:
                    raise ParseError(f"bad level {val!r}", pos) from None
            self.expect_sym(".")
            return Exists(tuple(bound), self.formula(), cap)
        return self.or_form()

    def variable(self) -> str:
        kind, val, pos = self.take()
        if kind != "word" or val in ("exists", "in") or self.sig.has(val):
            raise ParseError(f"expected a variable, found {val or 'end of input'!r}", pos)
        return val

    def or_form(self) -> Formula:
        f = self.and_form()
        while self.peek()[:2] == ("sym", "|"):
            self.take()
            f = Or(f, self.and_form())
        return f

    def and_form(self) -> Formula:
        f = self.unary()
        while self.peek()[:2] == ("sym", "&"):
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "sym" and val == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, val, pos = self.take()
        if kind == "sym" and val == "(":
            f = self.formula()
            self.expect_sym(")")
            return f
        if kind != "word" or val in ("exists", "in"):
            raise ParseError(f"expected an atom, found {val or 'end of input'!r}", pos)
        if self.peek()[:2] == ("sym", "("):
            if not self.sig.has(val):
                raise ParseError(f"unknown relation {val!r}", pos)
            self.take()
            args = [self.variable()]
            while self.peek()[:2] == ("sym", ","):
                self.take()
                args.append(self.variable())
            self.expect_sym(")")
            want = self.sig.arity(val)
            if len(args) != want:
                raise ParseError(
                    f"relation {val!r} expects {want} argument(s), got {len(args)}", pos
                )
            return RelAtom(val, tuple(args))
        if self.sig.has(val):
            raise ParseError(f"relation {val!r} needs an argument list", pos)
        self.expect_sym("=")
        return Eq(val, self.variable())


def parse(text: str, signature: Signature) -> Formula:
    """Parse formula text. Raises ParseError with a character position on
    syntax errors, unknown relations, and arity mismatches.

    Grammar, loosest first: exists-prefix, |, &, !, atoms. Binary operators
    associate left. An exists inside a connective needs parentheses.
    parse(render(f), sig) == f for every formula f over sig.
    """
    p = _Parser(text, signature)
    f = p.formula()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return f


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class ScheduleEntry:
    """One construction obligation: at stage processing, for every a-bar over
    x_vars inside V_level, try to supply a witness over y_vars in V_{level+1}."""

    formula: Formula
    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]
    level: LevelOrdinal
    position: int

    def key(self) -> tuple:
        # identity of the obligation, position excluded
        return self._key

    @cached_property
    def _key(self) -> tuple:  # rendered once: a build asks every entry each stage
        return (render(self.formula), self.x_vars, self.y_vars, self.level)


def _formula_stream(signature: Signature) -> Iterator[tuple[Formula, tuple[str, ...], tuple[str, ...]]]:
    """All quantifier-free formulas over x*/y* pools, deduplicated by rendered
    text, ordered by (variable budget, size, text). Every formula eventually
    appears: budget b admits variables x0..x_{b-1}, y0..y_{b-1} and sizes <= b.
    """
    seen: set[str] = set()
    budget = 0
    while True:
        budget += 1
        pool = [f"x{i}" for i in range(budget)] + [f"y{i}" for i in range(budget)]
        by_size: list[list[Formula]] = [[]]
        atoms: list[Formula] = []
        for rel, ar in signature.relations:
            if ar > len(pool):
                continue
            stack = [()]
            for _ in range(ar):
                stack = [t + (v,) for t in stack for v in pool]
            atoms.extend(RelAtom(rel, t) for t in stack)
        atoms.extend(Eq(a, b) for a in pool for b in pool)
        by_size.append(atoms)
        for size in range(2, budget + 1):
            layer: list[Formula] = [Not(f) for f in by_size[size - 1]]
            for ls in range(1, size - 1):
                rs = size - 1 - ls
                for lf in by_size[ls]:
                    for rf in by_size[rs]:
                        layer.append(And(lf, rf))
                        layer.append(Or(lf, rf))
            by_size.append(layer)
        fresh = []
        for size in range(1, budget + 1):  # by_size[size] holds size-node formulas
            for f in by_size[size]:
                text = render(f)
                if text not in seen:
                    fresh.append((size, text, f))
        fresh.sort(key=lambda t: (t[0], t[1]))
        for _, text, f in fresh:
            seen.add(text)
            xs, ys = split_vars(f)
            yield f, xs, ys


def _ruler(t: int) -> int:
    """2-adic valuation of t+1: 0 1 0 2 0 1 0 3 ... Every value m occurs at
    positions 2^m*(2j+1)-1, so with unbounded frequency."""
    n = t + 1
    m = 0
    while n % 2 == 0:
        n //= 2
        m += 1
    return m


def _base_triples(signature: Signature, count: int) -> list[tuple[Formula, tuple[str, ...], tuple[str, ...], LevelOrdinal]]:
    """First `count` entries of the diagonal pairing of the formula stream
    with the level stream. Within diagonal s the level index runs s down to 0,
    so triples 0 and 1 carry fin0 and omega+0."""
    out = []
    pairs: list[tuple[Formula, tuple[str, ...], tuple[str, ...]]] = []
    gen = _formula_stream(signature)
    s = 0
    while len(out) < count:
        for li in range(s, -1, -1):
            j = s - li
            while len(pairs) <= j:
                pairs.append(next(gen))
            f, xs, ys = pairs[j]
            out.append((f, xs, ys, level_at(li)))
            if len(out) == count:
                break
        s += 1
    return out


def enumerate_schedule(signature: Signature, count: int) -> list[ScheduleEntry]:
    """Deterministic fair schedule over a signature.

    The base stream dovetails all quantifier-free formulas (with their x/y
    variable split) against all levels; entry t of the schedule repeats base
    triple ruler(t), so each triple recurs with unbounded frequency. Fairness
    bound: base triple m first appears at position 2^m - 1 <= 3m + 2 for
    m <= 3, and in general within 2^m positions; every prefix of length 2N+2
    contains triples 0..ruler-reachable(N). Two stronger facts that callers
    rely on: the first two positions carry a fin level and an omega level, and
    prefixes are stable (enumerate_schedule(sig, n) is a prefix of
    enumerate_schedule(sig, n + k)).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    depth = 0
    for t in range(count):
        depth = max(depth, _ruler(t))
    triples = _base_triples(signature, depth + 1) if count else []
    entries = []
    for t in range(count):
        f, xs, ys, lvl = triples[_ruler(t)]
        entries.append(ScheduleEntry(f, xs, ys, lvl, t))
    return entries


def seeded_schedule(
    signature: Signature,
    seeds: tuple[tuple[Formula, tuple[str, ...], tuple[str, ...]], ...],
    count: int,
    horizon: int = 4,
) -> list[ScheduleEntry]:
    """Fair schedule interleaved with seed obligations.

    Even positions take the generic enumerate_schedule stream; odd positions
    sweep the seed formulas over levels in per-seed blocks of `horizon`
    levels, then repeat the sweep over the next block of levels, and so on.
    Within a block the levels run high to low (omega+1, fin1, omega+0, fin0
    for horizon 4): processing the high level first keeps a seed's fresh
    witnesses, which enter one level up, from feeding that same seed's next
    entry in the sweep, so classes of witnesses made at distinct levels stay
    distinguishable. Seeds fire early and at every level eventually, while
    the generic stream keeps the full fairness guarantee on its half of the
    positions.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not seeds:
        return enumerate_schedule(signature, count)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    fair = enumerate_schedule(signature, (count + 1) // 2)
    entries = []
    for pos in range(count):
        if pos % 2 == 0:
            base = fair[pos // 2]
            entries.append(ScheduleEntry(base.formula, base.x_vars, base.y_vars, base.level, pos))
        else:
            u = pos // 2
            block = len(seeds) * horizon
            r, idx = divmod(u, block)
            f, xs, ys = seeds[idx // horizon]
            lvl = level_at(r * horizon + (horizon - 1 - idx % horizon))
            entries.append(ScheduleEntry(f, xs, ys, lvl, pos))
    return entries
