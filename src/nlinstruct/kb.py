"""Entities, relations, triples and immutable application states.

A state is a knowledge base: a set of (subject, relation, object) triples
over a set of entities. Subjects are always entities; objects may be
entities, integers, text strings or enum symbols. States compare by value
(order-insensitive set equality) and are never mutated in place; application
logic derives new states from old ones. A derived state is held as its
changes to the state its chain started from, so it costs what changed, and
its full triple set is built only if something reads it (see
:class:`State`).

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


#: What a query returns when nothing matches: one shared empty set.
_EMPTY: frozenset = frozenset()


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

    A state made by ``State(...)`` is a *root*: it holds its triples. A
    state derived from another (:meth:`replace_triples`,
    :meth:`without_entities`, :meth:`with_entity`, :meth:`with_changes`)
    holds its entities and its changes to that state's root, never to an
    intermediate state: the root's triples it drops and the triples it adds
    that the root lacks, two frozensets as small as the change. So deriving
    a state costs what it changes, not what it keeps, and application logic
    that chains several helpers pays for none of the copies. Reading
    :attr:`triples` on a derived state builds the whole set once, in C, and
    keeps it; ``==`` against a state of the same root compares only the
    entities and the changes, and :meth:`changes_to` and
    :meth:`with_changes` read and make the changes without copying.

    Queries read two indexes keyed on interned values, each built on its
    first read: ``objects`` maps (subject, relation) and ``subjects`` maps
    (relation, object with text case folded) to a frozenset, which a read
    returns without copying. A value the state does not hold, such as
    another state's entity with the same id, misses. A root builds an index
    from its triples; a derived state copies its root's (building it first
    if need be) and recomputes only the keys its changes touch. Many states
    exist only long enough to be compared against another state (e.g.
    results of filtered method calls) or are read for a key or two
    (intermediate states inside application logic), so paying for indexing
    up front would be wasted work.

    A state also keeps two memos, made on first use and living exactly as
    long as the state, so they carry over between parses of the same state
    object (training epochs, tuning folds, grid points) but never between
    two equal states built apart:

    - :attr:`denotations`, the set denotations of logical forms, keyed by
      the form's (class, printed form) identity (see ``logic.evaluate``);
    - :attr:`call_outcomes`, the logic filter's outcome of each method call
      on this state, a kept result stored as its :meth:`changes_to` this
      state (see ``parser.infer``).

    A derived state refers to its root and a root to nothing, so states
    make no reference cycle.

    ``State(...)`` checks that every triple's subject is one of the
    entities and that entity ids are unique. The derivation helpers below
    check only what they add to an already checked state, and on a
    failure raise the same error the full check would.
    """

    __slots__ = (
        "domain_id",
        "entities",
        "_triples",
        "_root",
        "_dropped",
        "_added",
        "_hash",
        "_obj_idx",
        "_subj_idx",
        "_denotations",
        "_call_outcomes",
        "__weakref__",
    )

    def __init__(self, domain_id: str, entities: Iterable[Entity], triples: Iterable[Triple]):
        self.domain_id = domain_id
        self.entities: frozenset[Entity] = frozenset(entities)
        self._triples: frozenset[Triple] | None = frozenset(triples)
        _check(self.entities, self._triples)
        self._root: State | None = None
        self._dropped = self._added = _EMPTY
        self._hash: int | None = None
        self._obj_idx: dict | None = None
        self._subj_idx: dict | None = None
        self._denotations: dict | None = None
        self._call_outcomes: dict | None = None

    def _derive(self, entities: frozenset[Entity], dropped: frozenset[Triple],
                added: frozenset[Triple]) -> State:
        """The state on this state's root with ``entities`` and the root's
        triples less ``dropped`` (a subset of them) plus ``added`` (none of
        them). Checks nothing."""
        root = self._root or self
        new = _new(State)
        new.domain_id = self.domain_id
        new.entities = entities
        new._triples = None if dropped or added else root._triples
        new._root = root
        new._dropped = dropped
        new._added = added
        new._hash = new._obj_idx = new._subj_idx = None
        new._denotations = new._call_outcomes = None
        return new

    def _edit(self, entities: frozenset[Entity], remove: frozenset[Triple],
              add: frozenset[Triple]) -> State:
        """This state with ``entities``, less the triples of ``remove``,
        plus those of ``add``, as changes to the root."""
        base = (self._root or self)._triples
        return self._derive(entities, (self._dropped | (remove & base)) - add,
                            (self._added - remove) | (add - base))

    # -- value semantics ----------------------------------------------------

    @property
    def triples(self) -> frozenset[Triple]:
        """Every triple of the state; on a derived state, built from the
        root's on first read and kept."""
        triples = self._triples
        if triples is None:
            triples = self._triples = self._root._triples.difference(self._dropped).union(
                self._added)
        return triples

    def _size(self) -> int:
        """How many triples the state holds, without building them."""
        root = self._root
        if root is None:
            return len(self._triples)
        return len(root._triples) - len(self._dropped) + len(self._added)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        if self.domain_id != other.domain_id or self.entities != other.entities:
            return False
        if (self._root or self) is (other._root or other):
            # changes to one root are unique: dropped within it, added outside
            return self._dropped == other._dropped and self._added == other._added
        return self._size() == other._size() and self.triples == other.triples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.domain_id, self.entities, self.triples))
        return self._hash

    def __repr__(self) -> str:
        return f"State({self.domain_id}, {len(self.entities)} entities, {self._size()} triples)"

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
        adds, then the triples it drops and adds, as frozensets of the items
        that differ, so it is much smaller than ``other``. For a state
        derived from this one, its own changes, not copied."""
        if self.entities is other.entities:
            entity_changes = (_EMPTY, _EMPTY)
        else:
            entity_changes = (self.entities - other.entities, other.entities - self.entities)
        if other._root is self:
            return (*entity_changes, other._dropped, other._added)
        if (self._root or self) is (other._root or other):
            return (*entity_changes,
                    (other._dropped - self._dropped) | (self._added - other._added),
                    (self._dropped - other._dropped) | (other._added - self._added))
        return (*entity_changes, self.triples - other.triples, other.triples - self.triples)

    def with_changes(self, changes: tuple) -> "State":
        """The state equal to ``other`` for ``changes = self.changes_to(other)``,
        or for the same four collections as tuples. Not checked again:
        ``other`` was checked when it was built. On a root, the changes
        become the new state's own, and frozensets are not copied."""
        gone, new, dropped, added = changes
        entities = self.entities.difference(gone).union(new) if gone or new else self.entities
        dropped, added = frozenset(dropped), frozenset(added)
        if self._root is None:
            return self._derive(entities, dropped, added)
        return self._edit(entities, dropped, added)

    # -- indexes ------------------------------------------------------------

    def _build_indexes(self, kind: str) -> dict:
        """Build, keep and return the one index of ``kind``: ``"objects"``,
        keyed on (subject, relation), or ``"subjects"``, keyed on
        (relation, object) with text case folded. A derived state starts
        from its root's and recomputes the keys its changes touch."""
        root = self._root
        if root is None:
            groups: dict = {}
            if kind == "objects":
                for t in self._triples:
                    groups.setdefault((t.subject, t.relation), []).append(t.object)
            else:
                for t in self._triples:
                    groups.setdefault((t.relation, _text_key(t.object)), []).append(t.subject)
            idx = {key: frozenset(members) for key, members in groups.items()}
        else:
            base = root._obj_idx if kind == "objects" else root._subj_idx
            if base is None:
                base = root._build_indexes(kind)
            idx = dict(base)
            changed: dict = {}
            refold = []
            for keep, triples in ((False, self._dropped), (True, self._added)):
                for t in triples:
                    if kind == "objects":
                        key, member = (t.subject, t.relation), t.object
                    else:
                        key, member = (t.relation, _text_key(t.object)), t.subject
                        if not keep and isinstance(t.object, TextVal):
                            refold.append((key, t.subject))
                    members = changed.get(key)
                    if members is None:
                        members = changed[key] = set(base.get(key, _EMPTY))
                    if keep:
                        members.add(member)
                    else:
                        members.discard(member)
            # a subject dropped under a folded text key stays while another
            # of its objects folds to the same text
            for (relation, folded), subject in refold:
                if subject in self.entities and any(
                        _text_key(o) is folded for o in self.objects(subject, relation)):
                    changed[relation, folded].add(subject)
            for key, members in changed.items():
                if members:
                    idx[key] = frozenset(members)
                else:
                    idx.pop(key, None)
        if kind == "objects":
            self._obj_idx = idx
        else:
            self._subj_idx = idx
        return idx

    def objects(self, subject: Value, relation: str) -> frozenset[Value]:
        """All o with (subject, relation, o) in the state. Exact matching."""
        idx = self._obj_idx
        if idx is None:
            idx = self._build_indexes("objects")
        return idx.get((subject, relation), _EMPTY)

    def subjects(self, relation: str, obj: Value) -> frozenset[Entity]:
        """All s with (s, relation, obj) in the state. Exact matching: for
        text, the folded index's subjects whose exact triple is present."""
        idx = self._subj_idx
        if idx is None:
            idx = self._build_indexes("subjects")
        if isinstance(obj, TextVal):
            found = idx.get((relation, _text_key(obj)), _EMPTY)
            return frozenset(s for s in found if (s, relation, obj) in self.triples)
        return idx.get((relation, obj), _EMPTY)

    def subjects_matching(self, relation: str, obj: Value) -> frozenset[Entity]:
        """Like :meth:`subjects` but folds text case, for executor joins."""
        idx = self._subj_idx
        if idx is None:
            idx = self._build_indexes("subjects")
        return idx.get((relation, _text_key(obj)), _EMPTY)

    def pairs(self, relation: str) -> tuple[tuple[Entity, Value], ...]:
        """All (subject, object) pairs of a relation."""
        return tuple((t.subject, t.object) for t in self.triples if t.relation == relation)

    def entities_of_type(self, etype: str) -> frozenset[Entity]:
        return frozenset(e for e in self.entities if e.etype == etype)

    # -- derivation helpers (used by application logic) ----------------------
    # each checks only the triples and entities it adds; kept triples were
    # checked when the root was built

    def replace_triples(self, remove: Iterable[Triple], add: Iterable[Triple]) -> "State":
        remove = frozenset(remove)
        add = frozenset(add)
        if not self.entities.issuperset([t.subject for t in add]):
            _check(self.entities, (self.triples - remove) | add)  # raises the full check's error
        return self._edit(self.entities, remove, add)

    def without_entities(self, gone: Iterable[Entity]) -> "State":
        """Drop entities together with every triple they touch (either side).
        Needs no check: kept subjects are kept entities, and a subset of
        entities with unique ids has unique ids. Hashes each dropped triple
        once, and no kept one."""
        gone = frozenset(gone)
        dropped = self._dropped.union([t for t in (self._root or self)._triples
                                       if t.subject in gone or t.object in gone])
        added = self._added
        lost = [t for t in added if t.subject in gone or t.object in gone]
        if lost:
            added = added.difference(lost)
        return self._derive(self.entities - gone, dropped, added)

    def with_entity(self, entity: Entity, triples: Iterable[Triple]) -> "State":
        entities = self.entities | {entity}
        new = frozenset(triples)
        if not entities.issuperset([t.subject for t in new]) or (
            len(entities) > len(self.entities)
            and any(e.id == entity.id for e in self.entities)
        ):
            _check(entities, self.triples | new)  # raises the full check's error
        return self._edit(entities, _EMPTY, new)
