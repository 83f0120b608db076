"""Entities, relations, triples and immutable application states.

A state is a knowledge base: a set of (subject, relation, object) triples
over a set of entities. Subjects are always entities; objects may be
entities, integers, text strings or enum symbols. States compare by value
(order-insensitive set equality) and are never mutated in place; application
logic derives new states from old ones.

Values are interned. ``Entity``, ``IntVal``, ``TextVal`` and ``SymVal``
return the one object of their class for the given fields, so equal values
are the same object and compare and hash by identity, in C. Each class
keeps its own table (``TextVal("ON") != SymVal("ON")``). The tables are
never emptied: they grow only with the distinct values a process makes (a
few hundred in a benchmark pass). A ``Triple`` is a named tuple of interned
fields, so it hashes and compares in C as well. Since a value's hash is its
address, a set of values iterates in an order that changes from run to run:
whatever reaches an output must not depend on it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import NlinstructError

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

_new = object.__new__
_set = object.__setattr__


class _Interned:
    """Base of the interned values: immutable, compared and hashed by
    identity (``object``'s own ``__eq__`` and ``__hash__``), and copied,
    deep-copied and unpickled as the interned object of the same fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_ENTITIES: dict[tuple[str, str], Entity] = {}
_INTS: dict[int, IntVal] = {}
_TEXTS: dict[str, TextVal] = {}
_SYMBOLS: dict[str, SymVal] = {}


class Entity(_Interned):
    """A domain entity. Ids are opaque generation-time handles (``room1``,
    ``c2``) and must never leak into feature names."""

    __slots__ = ("id", "etype")
    id: str
    etype: str

    def __new__(cls, id: str, etype: str) -> Entity:
        self = _ENTITIES.get((id, etype))
        if self is None:
            self = _ENTITIES[id, etype] = _new(cls)
            _set(self, "id", id)
            _set(self, "etype", etype)
        return self

    def __repr__(self) -> str:
        return f"Entity({self.id}:{self.etype})"


class IntVal(_Interned):
    """An integer. Interned on its value, so ``IntVal(True) is IntVal(1)``."""

    __slots__ = ("value",)
    value: int

    def __new__(cls, value: int) -> IntVal:
        self = _INTS.get(value)
        if self is None:
            self = _INTS[value] = _new(cls)
            _set(self, "value", value)
        return self

    def __repr__(self) -> str:
        return f"IntVal({self.value})"


class TextVal(_Interned):
    __slots__ = ("value",)
    value: str

    def __new__(cls, value: str) -> TextVal:
        self = _TEXTS.get(value)
        if self is None:
            self = _TEXTS[value] = _new(cls)
            _set(self, "value", value)
        return self

    def __repr__(self) -> str:
        return f"TextVal({self.value!r})"


class SymVal(_Interned):
    """An enum symbol such as ON, OFF or LOADED."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> SymVal:
        self = _SYMBOLS.get(name)
        if self is None:
            self = _SYMBOLS[name] = _new(cls)
            _set(self, "name", name)
        return self

    def __repr__(self) -> str:
        return f"SymVal({self.name})"


Value = Entity | IntVal | TextVal | SymVal

#: Relation mapping every entity to the symbol of its entity type.
TYPE_RELATION = "type"


class Triple(NamedTuple):
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


def _check(entities: frozenset[Entity], triples: frozenset[Triple]) -> None:
    """Raise unless every triple's subject is a state entity and entity ids
    are unique."""
    for t in triples:
        if t.subject not in entities:
            raise NlinstructError(
                f"triple subject {t.subject!r} not among state entities"
            )
    ids = {e.id for e in entities}
    if len(ids) != len(entities):
        raise NlinstructError("duplicate entity id in state")


class State:
    """An immutable application snapshot.

    Query indexes are built lazily, one kind at a time, each on its first
    read: many states exist only long enough to be compared against
    another state (e.g. results of filtered method calls) or are read
    through one index only (intermediate states inside application logic),
    so paying for indexing up front would be wasted work.

    A state also keeps two memos, made on first use and living exactly as
    long as the state, so they carry over between parses of the same state
    object (training epochs, tuning folds, grid points) but never between
    two equal states built apart:

    - :attr:`denotations`, the set denotations of logical forms, keyed by
      the form's (class, printed form) identity (see ``logic.evaluate``);
    - :attr:`call_outcomes`, the logic filter's outcome of each method call
      on this state, a kept result stored as its :meth:`changes_to` this
      state (see ``parser.infer``).

    ``State(...)`` checks that every triple's subject is one of the
    entities and that entity ids are unique. The derivation helpers below
    check only what they add to an already checked state, and on a
    failure raise the same error the full check would.
    """

    __slots__ = (
        "domain_id",
        "entities",
        "triples",
        "_hash",
        "_obj_idx",
        "_subj_idx",
        "_fold_idx",
        "_pair_idx",
        "_denotations",
        "_call_outcomes",
        "__weakref__",
    )

    def __init__(self, domain_id: str, entities: Iterable[Entity], triples: Iterable[Triple],
                 *, _checked: bool = False):
        self.domain_id = domain_id
        self.entities: frozenset[Entity] = frozenset(entities)
        self.triples: frozenset[Triple] = frozenset(triples)
        if not _checked:
            _check(self.entities, self.triples)
        self._hash: int | None = None
        self._obj_idx: dict | None = None
        self._subj_idx: dict | None = None
        self._fold_idx: dict | None = None
        self._pair_idx: dict | None = None
        self._denotations: dict | None = None
        self._call_outcomes: dict | None = None

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

    # -- memos --------------------------------------------------------------

    @property
    def denotations(self) -> dict:
        """Set denotations of forms evaluated on this state."""
        memo = self._denotations
        if memo is None:
            memo = self._denotations = {}
        return memo

    @property
    def call_outcomes(self) -> dict:
        """The logic filter's outcome of each method call on this state."""
        memo = self._call_outcomes
        if memo is None:
            memo = self._call_outcomes = {}
        return memo

    # -- changes ------------------------------------------------------------

    def changes_to(self, other: "State") -> tuple:
        """What turns this state into ``other``: the entities it drops and
        adds, then the triples it drops and adds. A few sets of the items
        that differ, so it is much smaller than ``other``."""
        return (tuple(self.entities - other.entities), tuple(other.entities - self.entities),
                tuple(self.triples - other.triples), tuple(other.triples - self.triples))

    def with_changes(self, changes: tuple) -> "State":
        """The state equal to ``other`` for ``changes = self.changes_to(other)``.
        Not checked again: ``other`` was checked when it was built."""
        gone, new, dropped, added = changes
        entities = self.entities.difference(gone).union(new) if gone or new else self.entities
        return State(self.domain_id, entities, self.triples.difference(dropped).union(added),
                     _checked=True)

    # -- indexes ------------------------------------------------------------

    def _build_indexes(self, kind: str) -> dict:
        """Build, keep and return the one index of ``kind``: ``"objects"``,
        ``"subjects"``, ``"folded"`` (subjects, text case folded) or
        ``"pairs"``."""
        idx: dict = {}
        if kind == "objects":
            for t in self.triples:
                idx.setdefault((t.subject.id, t.relation), set()).add(t.object)
            self._obj_idx = idx
        elif kind == "subjects":
            for t in self.triples:
                idx.setdefault((t.relation, t.object), set()).add(t.subject)
            self._subj_idx = idx
        elif kind == "folded":
            for t in self.triples:
                idx.setdefault((t.relation, _text_key(t.object)), set()).add(t.subject)
            self._fold_idx = idx
        else:
            for t in self.triples:
                idx.setdefault(t.relation, []).append((t.subject, t.object))
            self._pair_idx = idx
        return idx

    def objects(self, subject: Value, relation: str) -> frozenset[Value]:
        """All o with (subject, relation, o) in the state. Exact matching."""
        if not isinstance(subject, Entity):
            return frozenset()
        idx = self._obj_idx
        if idx is None:
            idx = self._build_indexes("objects")
        return frozenset(idx.get((subject.id, relation), ()))

    def subjects(self, relation: str, obj: Value) -> frozenset[Entity]:
        """All s with (s, relation, obj) in the state. Exact matching."""
        idx = self._subj_idx
        if idx is None:
            idx = self._build_indexes("subjects")
        return frozenset(idx.get((relation, obj), ()))

    def subjects_matching(self, relation: str, obj: Value) -> frozenset[Entity]:
        """Like :meth:`subjects` but folds text case, for executor joins."""
        idx = self._fold_idx
        if idx is None:
            idx = self._build_indexes("folded")
        return frozenset(idx.get((relation, _text_key(obj)), ()))

    def pairs(self, relation: str) -> tuple[tuple[Entity, Value], ...]:
        """All (subject, object) pairs of a relation."""
        idx = self._pair_idx
        if idx is None:
            idx = self._build_indexes("pairs")
        return tuple(idx.get(relation, ()))

    def entities_of_type(self, etype: str) -> frozenset[Entity]:
        return frozenset(e for e in self.entities if e.etype == etype)

    # -- derivation helpers (used by application logic) ----------------------
    # each checks only the triples and entities it adds; kept triples were
    # checked when this state was built

    def replace_triples(self, remove: Iterable[Triple], add: Iterable[Triple]) -> "State":
        add = frozenset(add)
        triples = (self.triples - frozenset(remove)) | add
        if not self.entities.issuperset([t.subject for t in add]):
            _check(self.entities, triples)  # raises the full check's error
        return State(self.domain_id, self.entities, triples, _checked=True)

    def without_entities(self, gone: Iterable[Entity]) -> "State":
        """Drop entities together with every triple they touch (either side).
        Needs no check: kept subjects are kept entities, and a subset of
        entities with unique ids has unique ids."""
        gone = frozenset(gone)
        dropped = [t for t in self.triples if t.subject in gone or t.object in gone]
        return State(self.domain_id, self.entities - gone, self.triples.difference(dropped),
                     _checked=True)

    def with_entity(self, entity: Entity, triples: Iterable[Triple]) -> "State":
        entities = self.entities | {entity}
        new = frozenset(triples)
        all_triples = self.triples | new
        if not entities.issuperset([t.subject for t in new]) or (
            len(entities) > len(self.entities)
            and any(e.id == entity.id for e in self.entities)
        ):
            _check(entities, all_triples)  # raises the full check's error
        return State(self.domain_id, entities, all_triples, _checked=True)
