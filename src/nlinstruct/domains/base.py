"""Domain declarations: entity types, relations, interface methods,
method calls and the deterministic application-logic contract.

A domain is a small application. Its application logic is ordinary code
(a function from (state, call) to a new state) because the interesting
behaviour (exceptions, cascading removals, index re-compaction) is
inherently procedural; everything else about a domain is declarative data.

:func:`invoke` is the only way into application logic. It checks that the
state is the domain's, that the method is one of the domain's and that
every entity in a ``COLLECTION`` or ``SINGLE`` argument belongs to the
state, raising ``DomainLogicError`` for an entity the state lacks. A
domain's ``logic`` may therefore assume its argument entities exist and
keeps only its own effects and its own refusals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..errors import DataError, DomainLogicError, ExecutionError, NlinstructError
from ..kb import TYPE_RELATION, Entity, IntVal, State, SymVal, Triple, Value

# Parameter kinds
COLLECTION = "collection"
SINGLE = "single"
INT_ARG = "int"
ENUM_ARG = "enum"

# Relation object kinds
OBJ_INT = "int"
OBJ_TEXT = "text"
OBJ_SYM = "sym"
OBJ_ENTITY = "entity"


@dataclass(frozen=True, slots=True)
class ParameterSpec:
    """One formal parameter of an interface method.

    ``int_pool`` is a generator hint: the values random argument sampling
    may draw for an integer parameter. It plays no role in execution.
    """

    kind: str
    etype: str | None = None
    symbols: tuple[str, ...] = ()
    int_pool: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (COLLECTION, SINGLE, INT_ARG, ENUM_ARG):
            raise NlinstructError(f"unknown parameter kind {self.kind!r}")
        if self.kind in (COLLECTION, SINGLE) and not self.etype:
            raise NlinstructError(f"{self.kind} parameter requires an entity type")
        if self.kind == ENUM_ARG and not self.symbols:
            raise NlinstructError("enum parameter requires allowed symbols")


@dataclass(frozen=True, slots=True)
class InterfaceMethod:
    name: str
    params: tuple[ParameterSpec, ...]
    phrases: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.phrases) <= 3:
            raise NlinstructError(
                f"method {self.name}: needs 1-3 description phrases, got {len(self.phrases)}"
            )


@dataclass(frozen=True, slots=True)
class RelationSpec:
    """A relation declaration: name, object signature and the phrases that
    may evoke it in an utterance (beyond the bare relation name)."""

    name: str
    object_kind: str
    object_etype: str | None = None
    phrases: tuple[str, ...] = ()


def _conforms(param: ParameterSpec, arg: frozenset[Value]) -> str | None:
    """Return an error description when ``arg`` does not fit ``param``."""
    if not arg:
        return "empty argument"
    if param.kind == COLLECTION:
        bad = [v for v in arg if not (isinstance(v, Entity) and v.etype == param.etype)]
        if bad:
            return f"expected entities of type {param.etype}"
    elif param.kind == SINGLE:
        if len(arg) != 1:
            return f"expected a single {param.etype}, got {len(arg)} values"
        (v,) = arg
        if not (isinstance(v, Entity) and v.etype == param.etype):
            return f"expected a single entity of type {param.etype}"
    elif param.kind == INT_ARG:
        if len(arg) != 1 or not isinstance(next(iter(arg)), IntVal):
            return "expected a single integer"
    elif param.kind == ENUM_ARG:
        if len(arg) != 1:
            return "expected a single symbol"
        (v,) = arg
        if not (isinstance(v, SymVal) and v.name in param.symbols):
            return f"expected one of {param.symbols}"
    return None


class MethodCall:
    """A bound (interface method, argument list) pair. Hashable so that
    filtering can memoize invocation outcomes."""

    __slots__ = ("method", "args", "_hash")

    def __init__(self, method: InterfaceMethod, args: tuple[frozenset[Value], ...]):
        if len(args) != len(method.params):
            raise ExecutionError(
                f"{method.name}: expected {len(method.params)} arguments, got {len(args)}"
            )
        args = tuple(frozenset(a) for a in args)
        for param, arg in zip(method.params, args):
            problem = _conforms(param, arg)
            if problem:
                raise ExecutionError(f"{method.name}: {problem}")
        self._bind(method, args)

    @classmethod
    def conforming(cls, method: InterfaceMethod, args: tuple[frozenset[Value], ...]) -> MethodCall:
        """The call of arguments already known to conform: one frozenset
        per parameter, each passing :func:`_conforms`. Nothing is checked
        again."""
        call = cls.__new__(cls)
        call._bind(method, args)
        return call

    def _bind(self, method: InterfaceMethod, args: tuple[frozenset[Value], ...]) -> None:
        self.method = method
        self.args = args
        self._hash = hash((method.name, args))

    def __eq__(self, other):
        if not isinstance(other, MethodCall):
            return NotImplemented
        return self.method.name == other.method.name and self.args == other.args

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = ", ".join("{" + ", ".join(sorted(map(repr, a))) + "}" for a in self.args)
        return f"MethodCall({self.method.name}, {parts})"


ApplicationLogic = Callable[[State, MethodCall], State]
StateGenerator = Callable[[random.Random, dict], State]


@dataclass
class Domain:
    id: str
    entity_types: tuple[str, ...]
    relations: dict[str, RelationSpec]
    methods: tuple[InterfaceMethod, ...]
    enum_symbols: tuple[str, ...]
    logic: ApplicationLogic
    generate_state: StateGenerator
    default_ranges: dict = field(default_factory=dict)
    #: range name -> (least lo, greatest hi) that ``generate_state`` can
    #: honour, for the ranges that have such a limit
    range_limits: dict = field(default_factory=dict)

    def __post_init__(self):
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise NlinstructError(f"domain {self.id}: duplicate method names")
        if TYPE_RELATION not in self.relations:
            self.relations = dict(self.relations)
            self.relations[TYPE_RELATION] = RelationSpec(
                TYPE_RELATION, OBJ_SYM, phrases=("kind",)
            )

    def method(self, name: str) -> InterfaceMethod:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(f"{self.id}: no method {name!r}")


def validate_state_for_domain(state: State, domain: Domain) -> None:
    """Every entity type and relation in a state must be declared by its
    domain, and a ``type`` triple must give its subject the subject's own
    entity type or one of the domain's symbols (a file's kind); loaders
    call this so mismatches fail with a message instead of an empty or
    wrong parse."""
    if state.domain_id != domain.id:
        raise DataError(f"state belongs to {state.domain_id!r}, not {domain.id!r}")
    for e in state.entities:
        if e.etype not in domain.entity_types:
            raise DataError(f"{domain.id}: undeclared entity type {e.etype!r} ({e.id})")
    for t in state.triples:
        if t.relation not in domain.relations:
            raise DataError(f"{domain.id}: undeclared relation {t.relation!r}")
        if t.relation == TYPE_RELATION and t.object is not SymVal(t.subject.etype):
            name = t.object.name if isinstance(t.object, SymVal) else None
            if name not in domain.enum_symbols or name in domain.entity_types:
                raise DataError(f"{domain.id}: entity {t.subject.id!r} has type "
                                f"{t.subject.etype!r}, but a type triple gives it "
                                f"{name or t.object!r}")


def invoke(domain: Domain, state: State, call: MethodCall) -> State:
    """Run the application logic. Pure: never mutates the input state."""
    if state.domain_id != domain.id:
        raise NlinstructError(f"state belongs to {state.domain_id!r}, not {domain.id!r}")
    domain.method(call.method.name)  # reject calls against foreign methods
    for param, arg in zip(call.method.params, call.args):
        if param.kind in (COLLECTION, SINGLE) and not state.entities.issuperset(arg):
            raise DomainLogicError(f"{call.method.name}: unknown {param.etype} "
                                   f"{min(e.id for e in arg - state.entities)}")
    return domain.logic(state, call)


@dataclass(frozen=True)
class Example:
    """One dataset unit: initial state, instruction, desired state."""

    id: str
    domain_id: str
    initial: State
    utterance: str
    desired: State

    def __post_init__(self):
        if self.initial.domain_id != self.domain_id or self.desired.domain_id != self.domain_id:
            raise DataError(f"example {self.id}: states disagree with domain id")
        if self.initial == self.desired:
            raise DataError(f"example {self.id}: desired state equals initial state")


# ---------------------------------------------------------------------------
# Helpers shared by the concrete domain modules
# ---------------------------------------------------------------------------


def typed_entity(eid: str, etype: str) -> tuple[Entity, Triple]:
    e = Entity(eid, etype)
    return e, Triple(e, TYPE_RELATION, SymVal(etype))


def the(arg: frozenset[Value]) -> Value:
    """The sole member of a singleton argument (conformance checked earlier)."""
    (v,) = arg
    return v


def int_of(state: State, e: Entity, relation: str) -> int:
    objs = [o for o in state.objects(e, relation) if isinstance(o, IntVal)]
    if len(objs) != 1:
        raise NlinstructError(f"{e.id}: expected one integer {relation}, got {len(objs)}")
    return objs[0].value


def set_value(state: State, entities, relation: str, value: Value) -> State:
    """Make ``value`` each entity's only value of ``relation``, leaving
    alone an entity that has no value of it."""
    remove, add = [], []
    for e in sorted(entities, key=lambda x: x.id):
        for o in state.objects(e, relation):
            if o != value:
                remove.append(Triple(e, relation, o))
                add.append(Triple(e, relation, value))
    return state.replace_triples(remove, add)


def reindex(state: State, *orders: list[Entity]) -> State:
    """Reassign the ``index`` relation contiguously from 1 over each given
    order, leaving alone an entity whose only index is its position."""
    remove, add = [], []
    for order in orders:
        for i, e in enumerate(order, start=1):
            old = state.objects(e, "index")
            if old != {IntVal(i)}:
                remove.extend(Triple(e, "index", o) for o in old)
                add.append(Triple(e, "index", IntVal(i)))
    return state.replace_triples(remove, add)


def by_index(state: State, entities) -> list[Entity]:
    return sorted(entities, key=lambda e: (int_of(state, e, "index"), e.id))

