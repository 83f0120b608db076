"""Entities, relations, triples and immutable application states.

A state is a knowledge base: a set of (subject, relation, object) triples
over a set of entities. Subjects are always entities; objects may be
entities, integers, text strings or enum symbols. States compare by value
(order-insensitive set equality) and are never mutated in place; application
logic derives new states from old ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NlinstructError

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Entity:
    """A domain entity. Ids are opaque generation-time handles (``room1``,
    ``c2``) and must never leak into feature names."""

    id: str
    etype: str

    def __repr__(self) -> str:
        return f"Entity({self.id}:{self.etype})"


@dataclass(frozen=True, slots=True)
class IntVal:
    value: int

    def __repr__(self) -> str:
        return f"IntVal({self.value})"


@dataclass(frozen=True, slots=True)
class TextVal:
    value: str

    def __repr__(self) -> str:
        return f"TextVal({self.value!r})"


@dataclass(frozen=True, slots=True)
class SymVal:
    """An enum symbol such as ON, OFF or LOADED."""

    name: str

    def __repr__(self) -> str:
        return f"SymVal({self.name})"


Value = Entity | IntVal | TextVal | SymVal

#: Relation mapping every entity to the symbol of its entity type.
TYPE_RELATION = "type"


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Entity
    relation: str
    object: Value

    def __repr__(self) -> str:
        return f"({self.subject.id}, {self.relation}, {self.object!r})"


def _text_key(value: Value) -> Value:
    """Fold text for the executor's case-insensitive matching."""
    if isinstance(value, TextVal):
        return TextVal(value.value.casefold())
    return value


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------


class State:
    """An immutable application snapshot.

    Query indexes are built lazily: many states exist only long enough to be
    compared against another state (e.g. results of filtered method calls),
    so paying for indexing up front would be wasted work.
    """

    __slots__ = (
        "domain_id",
        "entities",
        "triples",
        "_hash",
        "_obj_idx",
        "_subj_idx",
        "_pair_idx",
    )

    def __init__(self, domain_id: str, entities: Iterable[Entity], triples: Iterable[Triple]):
        self.domain_id = domain_id
        self.entities: frozenset[Entity] = frozenset(entities)
        self.triples: frozenset[Triple] = frozenset(triples)
        for t in self.triples:
            if t.subject not in self.entities:
                raise NlinstructError(
                    f"triple subject {t.subject!r} not among state entities"
                )
        ids = {e.id for e in self.entities}
        if len(ids) != len(self.entities):
            raise NlinstructError("duplicate entity id in state")
        self._hash: int | None = None
        self._obj_idx: dict | None = None
        self._subj_idx: dict | None = None
        self._pair_idx: dict | None = None

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return (
            self.domain_id == other.domain_id
            and self.entities == other.entities
            and self.triples == other.triples
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain_id, self.entities, self.triples))
        return self._hash

    def __repr__(self) -> str:
        return f"State({self.domain_id}, {len(self.entities)} entities, {len(self.triples)} triples)"

    # -- indexes ------------------------------------------------------------

    def _build_indexes(self) -> None:
        obj_idx: dict[tuple[str, str], set[Value]] = {}
        subj_idx: dict[tuple[str, Value], set[Entity]] = {}
        fold_idx: dict[tuple[str, Value], set[Entity]] = {}
        pair_idx: dict[str, list[tuple[Entity, Value]]] = {}
        for t in self.triples:
            obj_idx.setdefault((t.subject.id, t.relation), set()).add(t.object)
            subj_idx.setdefault((t.relation, t.object), set()).add(t.subject)
            fold_idx.setdefault((t.relation, _text_key(t.object)), set()).add(t.subject)
            pair_idx.setdefault(t.relation, []).append((t.subject, t.object))
        self._obj_idx = obj_idx
        self._subj_idx = (subj_idx, fold_idx)
        self._pair_idx = pair_idx

    def objects(self, subject: Value, relation: str) -> frozenset[Value]:
        """All o with (subject, relation, o) in the state. Exact matching."""
        if not isinstance(subject, Entity):
            return frozenset()
        if self._obj_idx is None:
            self._build_indexes()
        return frozenset(self._obj_idx.get((subject.id, relation), ()))

    def subjects(self, relation: str, obj: Value) -> frozenset[Entity]:
        """All s with (s, relation, obj) in the state. Exact matching."""
        if self._subj_idx is None:
            self._build_indexes()
        return frozenset(self._subj_idx[0].get((relation, obj), ()))

    def subjects_matching(self, relation: str, obj: Value) -> frozenset[Entity]:
        """Like :meth:`subjects` but folds text case, for executor joins."""
        if self._subj_idx is None:
            self._build_indexes()
        return frozenset(self._subj_idx[1].get((relation, _text_key(obj)), ()))

    def pairs(self, relation: str) -> tuple[tuple[Entity, Value], ...]:
        """All (subject, object) pairs of a relation."""
        if self._pair_idx is None:
            self._build_indexes()
        return tuple(self._pair_idx.get(relation, ()))

    def entities_of_type(self, etype: str) -> frozenset[Entity]:
        return frozenset(e for e in self.entities if e.etype == etype)

    def entity(self, entity_id: str) -> Entity:
        for e in self.entities:
            if e.id == entity_id:
                return e
        raise KeyError(entity_id)

    # -- derivation helpers (used by application logic) ----------------------

    def replace_triples(self, remove: Iterable[Triple], add: Iterable[Triple]) -> "State":
        triples = (self.triples - frozenset(remove)) | frozenset(add)
        return State(self.domain_id, self.entities, triples)

    def without_entities(self, gone: Iterable[Entity]) -> "State":
        """Drop entities together with every triple they touch (either side)."""
        gone = frozenset(gone)
        keep = [
            t
            for t in self.triples
            if t.subject not in gone and not (isinstance(t.object, Entity) and t.object in gone)
        ]
        return State(self.domain_id, self.entities - gone, keep)

    def with_entity(self, entity: Entity, triples: Iterable[Triple]) -> "State":
        return State(self.domain_id, self.entities | {entity}, self.triples | frozenset(triples))


def states_equal(a: State, b: State) -> bool:
    """Value equality of two same-domain states."""
    if a.domain_id != b.domain_id:
        raise NlinstructError(
            f"cannot compare states from different domains: {a.domain_id!r} vs {b.domain_id!r}"
        )
    return a == b
