"""Finite relational structures with level assignments, and one-step deltas.

A FinStructure never changes in place, and apply_delta is the only way one
is made: it validates only the delta and builds the child from its parent.
The child's universe, level map, cached V_alpha tuples and fact sets are the
parent's extended by the delta. The constructor grows the empty structure by
one delta, so element and fact checks live in one place. The parent is not
changed. Serialization is canonical JSON: byte-identical output for equal
structures, exact round trips.

Every binary relation carries a neighbour index: for an argument position
and an id, the ids at the other position (neighbours). A child shares every
neighbour set of its parent that the delta leaves alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .formula import LevelOrdinal, Signature, parse_level

_NONE: frozenset[int] = frozenset()


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class ExtensionDelta:
    """New elements (id, level) plus new relation tuples. Every new tuple must
    touch at least one new element; old facts are untouchable by design."""

    new_elements: tuple[tuple[int, LevelOrdinal], ...]
    new_facts: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def empty() -> "ExtensionDelta":
        return ExtensionDelta((), ())

    def is_empty(self) -> bool:
        return not self.new_elements and not self.new_facts


def _grow(sides, tups) -> tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]]:
    """Both index sides of a binary relation extended by the facts tups. Only
    the ids the facts touch get new neighbour sets; the rest are shared."""
    out = []
    for pos, side in enumerate(sides):
        add: dict[int, set[int]] = {}
        for t in tups:
            add.setdefault(t[pos], set()).add(t[1 - pos])
        grown = dict(side)
        for eid, others in add.items():
            grown[eid] = side.get(eid, _NONE) | others
        out.append(grown)
    return out[0], out[1]


def _merge(old: tuple[int, ...], new: tuple[int, ...]) -> tuple[int, ...]:
    """Two ascending id tuples as one; an append when new lies past old."""
    if not new:
        return old
    if not old or new[0] > old[-1]:
        return old + new
    return tuple(sorted(old + new))


class FinStructure:
    """Immutable finite structure: universe of int ids, per-element level,
    relation interpretations, and a neighbour index per binary relation.
    FinStructure(signature, elements, facts) is the empty structure grown by
    one delta holding them all, so apply_delta does every check."""

    __slots__ = ("signature", "universe", "_level", "_rels", "_nbrs", "_vcache", "_key")

    def __init__(
        self,
        signature: Signature,
        elements: tuple[tuple[int, LevelOrdinal], ...],
        facts: tuple[tuple[str, tuple[int, ...]], ...],
    ) -> None:
        empty = object.__new__(FinStructure)
        names = signature.names()
        empty._fill(signature, (), {}, dict.fromkeys(names, frozenset()),
                    {name: ({}, {}) for name in names}, {})
        self._extend(empty, ExtensionDelta(tuple(elements), tuple(facts)))

    def _fill(self, signature, universe, level, rels, nbrs, vcache) -> None:
        self.signature = signature
        self.universe = universe
        self._level = level
        self._rels = rels
        # _nbrs[rel][pos][eid]: the ids at position 1 - pos of the rel facts
        # with eid at position pos; both sides stay empty unless rel is binary
        self._nbrs = nbrs
        self._vcache: dict[LevelOrdinal, tuple[int, ...]] = vcache
        self._key: Optional[tuple] = None

    def _extend(self, M: "FinStructure", delta: ExtensionDelta) -> None:
        """Fill this structure as M grown by delta; see apply_delta."""
        sig = M.signature
        level = dict(M._level)
        fresh = set()
        for eid, lvl in delta.new_elements:
            if type(eid) is not int or eid < 0:
                raise StructureError(f"element ids must be nonnegative ints, got {eid!r}")
            if eid in M._level:
                raise StructureError(f"element id {eid} already in the universe")
            if eid in fresh:
                raise StructureError(f"duplicate element id {eid}")
            fresh.add(eid)
            level[eid] = lvl
        added: dict[str, set[tuple[int, ...]]] = {}
        for rel, tup in delta.new_facts:
            if not sig.has(rel):
                raise StructureError(f"unknown relation {rel!r}")
            if not any(e in fresh for e in tup):
                raise StructureError(f"fact {rel}{tup} touches no new element")
            for e in tup:
                if type(e) is not int or e not in level:
                    raise StructureError(f"fact {rel}{tup} mentions unknown element {e!r}")
            if len(tup) != sig.arity(rel):
                raise StructureError(f"arity mismatch for {rel!r}: {tup}")
            added.setdefault(rel, set()).add(tuple(tup))
        new = tuple(sorted(fresh))
        vcache = {
            alpha: _merge(ids, tuple(e for e in new if level[e] <= alpha))
            for alpha, ids in M._vcache.items()
        }
        rels, nbrs = dict(M._rels), dict(M._nbrs)
        for name, tups in added.items():
            rels[name] = rels[name] | tups
            if sig.arity(name) == 2:
                nbrs[name] = _grow(nbrs[name], tups)
        self._fill(sig, _merge(M.universe, new), level, rels, nbrs, vcache)

    # -- queries ------------------------------------------------------------

    def __contains__(self, eid: object) -> bool:
        return eid in self._level

    def level_of(self, eid: int) -> LevelOrdinal:
        return self._level[eid]

    def has_fact(self, rel: str, tup: tuple[int, ...]) -> bool:
        return tup in self._rels[rel]

    def facts(self, rel: str) -> frozenset[tuple[int, ...]]:
        return self._rels[rel]

    def neighbours(self, rel: str, pos: int, eid: int) -> frozenset[int]:
        """Ids at position 1 - pos of the rel facts with eid at position pos:
        for pos 0 the e with rel(eid, e), for pos 1 the e with rel(e, eid).
        Empty for an id outside the universe and for a relation that is not
        binary; KeyError for an unknown relation."""
        return self._nbrs[rel][pos].get(eid, _NONE)

    def v_ids(self, alpha: Optional[LevelOrdinal]) -> tuple[int, ...]:
        """Ids of V_alpha = elements at level <= alpha, ascending. Monotone in
        alpha by definition. alpha None means the whole universe."""
        if alpha is None:
            return self.universe
        cached = self._vcache.get(alpha)
        if cached is None:
            cached = tuple(e for e in self.universe if self._level[e] <= alpha)
            self._vcache[alpha] = cached
        return cached

    @property
    def max_id(self) -> int:
        return self.universe[-1] if self.universe else -1

    def size(self) -> int:
        return len(self.universe)

    def _eq_key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.signature,
                tuple((eid, self._level[eid]) for eid in self.universe),
                tuple((name, tuple(sorted(self._rels[name]))) for name in sorted(self._rels)),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinStructure) and self._eq_key() == other._eq_key()

    def __hash__(self) -> int:
        return hash(self._eq_key())

    def __repr__(self) -> str:
        return f"<FinStructure |U|={len(self.universe)} rels={sorted(self._rels)}>"

    # -- serialization --------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "signature": [[name, ar] for name, ar in self.signature.relations],
            "elements": [[eid, self._level[eid].render()] for eid in self.universe],
            "facts": {
                name: sorted([list(t) for t in self._rels[name]])
                for name in sorted(self._rels)
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())

    @staticmethod
    def from_doc(doc: dict) -> "FinStructure":
        """Inverse of to_doc. Ids and arities must be plain ints: a float, a
        bool or a text is rejected, never coerced."""
        relations = []
        for name, arity in doc["signature"]:
            if type(arity) is not int:
                raise StructureError(f"arity of {name!r} must be an int, got {arity!r}")
            relations.append((name, arity))
        elements = tuple((eid, parse_level(lvl)) for eid, lvl in doc["elements"])
        facts = tuple((name, tuple(t)) for name, tups in doc["facts"].items() for t in tups)
        return FinStructure(Signature(tuple(relations)), elements, facts)

    @staticmethod
    def from_json(text: str) -> "FinStructure":
        return FinStructure.from_doc(json.loads(text))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def apply_delta(structure: FinStructure, delta: ExtensionDelta) -> FinStructure:
    """Extend by a delta. Rejects id collisions, duplicate or malformed new
    ids, facts among old elements only, unknown relations, arity mismatches,
    and dangling ids. Old levels are preserved verbatim; levels never move.
    Only the delta is checked: the parent is valid, and nothing it holds
    changes. The child shares every neighbour set the delta leaves alone."""
    child = object.__new__(FinStructure)
    child._extend(structure, delta)
    return child
