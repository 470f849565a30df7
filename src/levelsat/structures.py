"""Finite relational structures with level assignments, and one-step deltas.

A FinStructure that a caller holds never changes, and apply_delta is how one
grows: it validates only the delta and returns a child, leaving the parent
as it was. The constructor grows the empty structure by one delta, so
element and fact checks live in one place (_extend). A builder that makes
many steps, such as construction.build_stage, thaws one copy, grows it in
place through the same _extend in time linear in each delta, and freezes it
before anyone else sees it. Serialization is canonical JSON: byte-identical
output for equal structures, exact round trips.

Every binary relation carries a neighbour index: for an argument position
and an id, the ids at the other position (neighbours). A child shares every
neighbour set of its parent that the delta leaves alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

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


def _merge_into(ids: list[int], new: list[int]) -> None:
    """Add the ascending ids new to the ascending list ids, in place; an
    append when new lies past ids."""
    if new:
        tail = not ids or new[0] > ids[-1]
        ids.extend(new)
        if not tail:
            ids.sort()


def _link(side: dict, e: int, other: int) -> None:
    """Add other to e's neighbour set on one index side, first replacing a
    frozen set, which the parent may share, by a set of its own."""
    s = side.get(e)
    if type(s) is not set:
        s = side[e] = set(s or ())
    s.add(other)


class FinStructure:
    """Finite structure: universe of int ids, per-element level, relation
    interpretations, and a neighbour index per binary relation.
    FinStructure(signature, elements, facts) is the empty structure grown by
    one delta holding them all, so _extend does every check.

    A frozen structure (every one a caller gets) keeps its universe and its
    V_alpha caches as tuples and its neighbour sets as frozensets, and never
    changes. A thawed one (_thawed) keeps them as lists and sets, and
    _extend grows it in place until _freeze."""

    __slots__ = ("signature", "universe", "_level", "_rels", "_nbrs", "_vcache", "_key")

    def __init__(
        self,
        signature: Signature,
        elements: tuple[tuple[int, LevelOrdinal], ...],
        facts: tuple[tuple[str, tuple[int, ...]], ...],
    ) -> None:
        names = signature.names()
        self._fill(signature, [], {}, {name: set() for name in names},
                   {name: ({}, {}) for name in names}, {})
        self._extend(ExtensionDelta(tuple(elements), tuple(facts)))
        self._freeze()

    def _fill(self, signature, universe, level, rels, nbrs, vcache) -> None:
        self.signature = signature
        self.universe = universe
        self._level = level
        self._rels = rels
        # _nbrs[rel][pos][eid]: the ids at position 1 - pos of the rel facts
        # with eid at position pos; both sides stay empty unless rel is binary
        self._nbrs = nbrs
        self._vcache = vcache
        self._key: Optional[tuple] = None

    def _thawed(self) -> "FinStructure":
        """A copy of this frozen structure that _extend can grow in place,
        made in O(|universe| + |facts|). It shares only frozen neighbour
        sets, which _extend replaces by a set of its own before it adds to
        one."""
        out = object.__new__(FinStructure)
        out._fill(
            self.signature,
            list(self.universe),
            dict(self._level),
            {name: set(tups) for name, tups in self._rels.items()},
            {name: tuple(dict(side) for side in sides) for name, sides in self._nbrs.items()},
            {alpha: list(ids) for alpha, ids in self._vcache.items()},
        )
        return out

    def _freeze(self) -> "FinStructure":
        """End the growth of a thawed structure; returns it, now frozen."""
        self.universe = tuple(self.universe)
        self._vcache = {alpha: tuple(ids) for alpha, ids in self._vcache.items()}
        for sides in self._nbrs.values():
            for side in sides:
                for e, s in side.items():
                    if type(s) is set:
                        side[e] = frozenset(s)
        return self

    def _extend(self, delta: ExtensionDelta) -> None:
        """Grow this thawed structure by delta in place, in time linear in
        the delta and the number of cached V_alpha, plus one copy of each
        neighbour set it first touches since the thaw; see apply_delta for
        the checks. Everything is checked before anything changes, so a
        rejected delta leaves the structure as it was."""
        level = self._level
        arity = dict(self.signature.relations)
        fresh: dict[int, LevelOrdinal] = {}
        for eid, lvl in delta.new_elements:
            if type(eid) is not int or eid < 0:
                raise StructureError(f"element ids must be nonnegative ints, got {eid!r}")
            if eid in level:
                raise StructureError(f"element id {eid} already in the universe")
            if eid in fresh:
                raise StructureError(f"duplicate element id {eid}")
            fresh[eid] = lvl
        new_ids = fresh.keys()
        added = []
        for rel, tup in delta.new_facts:
            ar = arity.get(rel)
            if ar is None:
                raise StructureError(f"unknown relation {rel!r}")
            if new_ids.isdisjoint(tup):
                raise StructureError(f"fact {rel}{tup} touches no new element")
            for e in tup:
                if type(e) is not int or not (e in level or e in fresh):
                    raise StructureError(f"fact {rel}{tup} mentions unknown element {e!r}")
            if len(tup) != ar:
                raise StructureError(f"arity mismatch for {rel!r}: {tup}")
            added.append((rel, tuple(tup)))
        level.update(fresh)
        new = sorted(fresh)
        _merge_into(self.universe, new)
        for alpha, ids in self._vcache.items():
            _merge_into(ids, [e for e in new if fresh[e] <= alpha])
        for rel, tup in added:
            self._rels[rel].add(tup)
            if len(tup) == 2:
                out, into = self._nbrs[rel]
                _link(out, tup[0], tup[1])
                _link(into, tup[1], tup[0])
        self._key = None

    # -- queries ------------------------------------------------------------

    def __contains__(self, eid: object) -> bool:
        return eid in self._level

    def level_of(self, eid: int) -> LevelOrdinal:
        return self._level[eid]

    def has_fact(self, rel: str, tup: tuple[int, ...]) -> bool:
        return tup in self._rels[rel]

    def facts(self, rel: str) -> AbstractSet[tuple[int, ...]]:
        """The rel facts, as the structure's own set: read it, never change it."""
        return self._rels[rel]

    def neighbours(self, rel: str, pos: int, eid: int) -> AbstractSet[int]:
        """Ids at position 1 - pos of the rel facts with eid at position pos:
        for pos 0 the e with rel(eid, e), for pos 1 the e with rel(e, eid).
        Empty for an id outside the universe and for a relation that is not
        binary; KeyError for an unknown relation."""
        return self._nbrs[rel][pos].get(eid, _NONE)

    def v_ids(self, alpha: Optional[LevelOrdinal]) -> Sequence[int]:
        """Ids of V_alpha = elements at level <= alpha, ascending. Monotone in
        alpha by definition. alpha None means the whole universe. A tuple on
        a frozen structure; on a thawed one, the list that _extend grows."""
        if alpha is None:
            return self.universe
        cached = self._vcache.get(alpha)
        if cached is None:
            cached = type(self.universe)(e for e in self.universe if self._level[e] <= alpha)
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
        bool or a text is rejected, never coerced. Levels must be text, and
        facts an object from relation names to lists of tuples."""
        relations = []
        for name, arity in doc["signature"]:
            if type(arity) is not int:
                raise StructureError(f"arity of {name!r} must be an int, got {arity!r}")
            relations.append((name, arity))
        levels: dict[str, LevelOrdinal] = {}  # each distinct level text parsed once
        elements = []
        for eid, lvl in doc["elements"]:
            if type(lvl) is not str:
                raise StructureError(f"level of element {eid!r} must be text, got {lvl!r}")
            if lvl not in levels:
                levels[lvl] = parse_level(lvl)
            elements.append((eid, levels[lvl]))
        if not isinstance(doc["facts"], dict):
            raise StructureError("facts must map each relation name to its tuples")
        facts = tuple((name, tuple(t)) for name, tups in doc["facts"].items() for t in tups)
        return FinStructure(Signature(tuple(relations)), tuple(elements), facts)

    @staticmethod
    def from_json(text: str) -> "FinStructure":
        return FinStructure.from_doc(json.loads(text))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def apply_delta(structure: FinStructure, delta: ExtensionDelta) -> FinStructure:
    """Extend by a delta. Rejects id collisions, duplicate or malformed new
    ids, facts among old elements only, unknown relations, arity mismatches,
    and dangling ids. Old levels are preserved verbatim; levels never move.
    Only the delta is checked: the parent is valid. The parent is not
    changed; the child is a thawed copy of it, grown and frozen, and shares
    every neighbour set the delta leaves alone."""
    child = structure._thawed()
    child._extend(delta)
    return child._freeze()
