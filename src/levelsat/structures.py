"""Finite relational structures with level assignments, and one-step deltas.

A FinStructure never changes in place. Growth happens by building an
ExtensionDelta and calling apply_delta, which validates and returns a new
structure. Serialization is canonical JSON: byte-identical output for equal
structures, exact round trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .formula import LevelOrdinal, Signature, parse_level


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


class FinStructure:
    """Immutable finite structure: universe of int ids, per-element level,
    relation interpretations."""

    __slots__ = ("signature", "universe", "_level", "_rels", "_vcache", "_key")

    def __init__(
        self,
        signature: Signature,
        elements: tuple[tuple[int, LevelOrdinal], ...],
        facts: tuple[tuple[str, tuple[int, ...]], ...],
    ) -> None:
        level: dict[int, LevelOrdinal] = {}
        for eid, lvl in elements:
            if not isinstance(eid, int) or eid < 0:
                raise StructureError(f"element ids must be nonnegative ints, got {eid!r}")
            if eid in level:
                raise StructureError(f"duplicate element id {eid}")
            level[eid] = lvl
        rels: dict[str, set[tuple[int, ...]]] = {name: set() for name in signature.names()}
        for rel, tup in facts:
            if rel not in rels:
                raise StructureError(f"unknown relation {rel!r}")
            if len(tup) != signature.arity(rel):
                raise StructureError(f"arity mismatch for {rel!r}: {tup}")
            for eid in tup:
                if eid not in level:
                    raise StructureError(f"fact {rel}{tup} mentions unknown element {eid}")
            rels[rel].add(tuple(tup))
        self.signature = signature
        self.universe = tuple(sorted(level))
        self._level = level
        self._rels = {name: frozenset(tups) for name, tups in rels.items()}
        self._vcache: dict[LevelOrdinal, tuple[int, ...]] = {}
        self._key = (
            signature,
            tuple((eid, level[eid]) for eid in self.universe),
            tuple((name, tuple(sorted(self._rels[name]))) for name in sorted(self._rels)),
        )

    # -- queries ------------------------------------------------------------

    def __contains__(self, eid: object) -> bool:
        return eid in self._level

    def level_of(self, eid: int) -> LevelOrdinal:
        return self._level[eid]

    def has_fact(self, rel: str, tup: tuple[int, ...]) -> bool:
        return tup in self._rels[rel]

    def facts(self, rel: str) -> frozenset[tuple[int, ...]]:
        return self._rels[rel]

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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinStructure) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
        sig = Signature(tuple((name, int(ar)) for name, ar in doc["signature"]))
        elements = tuple((int(eid), parse_level(lvl)) for eid, lvl in doc["elements"])
        facts = []
        for name, tups in doc["facts"].items():
            for t in tups:
                facts.append((name, tuple(int(e) for e in t)))
        return FinStructure(sig, elements, tuple(facts))

    @staticmethod
    def from_json(text: str) -> "FinStructure":
        return FinStructure.from_doc(json.loads(text))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def apply_delta(structure: FinStructure, delta: ExtensionDelta) -> FinStructure:
    """Extend by a delta. Rejects id collisions, facts among old elements
    only, unknown relations, and dangling ids. Old levels are preserved
    verbatim; levels never move."""
    old = set(structure.universe)
    new_ids = set()
    for eid, _ in delta.new_elements:
        if eid in old:
            raise StructureError(f"new element id {eid} already in universe")
        if eid in new_ids:
            raise StructureError(f"duplicate new element id {eid}")
        new_ids.add(eid)
    for rel, tup in delta.new_facts:
        if not structure.signature.has(rel):
            raise StructureError(f"unknown relation {rel!r}")
        if not any(e in new_ids for e in tup):
            raise StructureError(f"new fact {rel}{tup} touches no new element")
        for e in tup:
            if e not in old and e not in new_ids:
                raise StructureError(f"new fact {rel}{tup} mentions unknown element {e}")
    elements = tuple((e, structure.level_of(e)) for e in structure.universe) + delta.new_elements
    facts = tuple(
        (name, t) for name in structure.signature.names() for t in sorted(structure.facts(name))
    ) + delta.new_facts
    return FinStructure(structure.signature, elements, facts)


def delta_to_doc(delta: ExtensionDelta) -> dict:
    return {
        "new_elements": [[eid, lvl.render()] for eid, lvl in delta.new_elements],
        "new_facts": [[rel, list(t)] for rel, t in delta.new_facts],
    }


def delta_from_doc(doc: dict) -> ExtensionDelta:
    return ExtensionDelta(
        tuple((int(e), parse_level(l)) for e, l in doc["new_elements"]),
        tuple((rel, tuple(int(e) for e in t)) for rel, t in doc["new_facts"]),
    )
