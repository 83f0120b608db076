"""Logical forms and their execution.

The language is a small lambda-DCS subset. Every node denotes a set of
values when evaluated against a state, except the root ``Call`` node which
denotes a method call (and, once invoked, the resulting state):

    ``4`` / ``bedroom`` / ``ON``    value literal, denotes itself
    ``R[type].Room``                all entities of a type
    ``R[r].z``                      subjects s with (s, r, o) for some o in z
    ``F[r].z``                      objects o with (s, r, o) for some s in z
    ``Intersect(a, b)``             set intersection
    ``argmax(z, R[r])``             members of z maximizing the integer r
    ``argmin(z, R[r])``             members of z minimizing the integer r
    ``method(z1, ..., zn)``         a method call (root only)

Text literals match knowledge-base text case-insensitively inside joins.
Superlatives keep all tied extremes, so ties denote sets, not errors.

Forms are built only by the constructors below (the parser's chart and the
template generator call them); the printed notation is written, never read
back. Each node caches its canonical printed form; structural identity is
the pair (node class, printed form), so distinct value literals must print
distinctly: text that is not a bare lower-case word is quoted, with
backslashes and quotes escaped, so a quoted literal ends at its first
unescaped quote. A composite's printed form comes from one of the
``render_*`` functions below, applied to its parts' printed forms; each
takes last the part that the chart's pair walk varies (the right child).
The constructors print through them, and so does the parser's chart, which
renders each candidate before it builds anything: it deduplicates chart
entries on (category, printed form, anchored spans) and breaks score ties
on the printed form, so it relies on a candidate's rendered string being
exactly the ``printed`` of the node it would build. A root's string, from
:func:`render_call`, is handed to the ``Call`` the chart builds.

A form does not list the predicates it uses. What the features read of
them lives in its derivation's score key, which the chart composes from
the children's keys (see :mod:`nlinstruct.features`).
"""

from __future__ import annotations

import re

from .domains.base import InterfaceMethod, MethodCall
from .errors import ExecutionError
from .kb import SINGLETONS, TYPE_RELATION, IntVal, State, SymVal, TextVal, Value, frozen

_BARE_TEXT = re.compile(r"[a-z][a-z0-9]*$")


def print_value(v: Value) -> str:
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, SymVal):
        return v.name
    if isinstance(v, TextVal):
        if _BARE_TEXT.fullmatch(v.value):
            return v.value
        return '"' + v.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return f"ent:{v.id}"


# Printed forms of the composite nodes, from their parts' printed forms.


def render_join(op: str, relation: str, child: str) -> str:
    """``R[r].z`` (op ``R``, reverse join) or ``F[r].z`` (op ``F``)."""
    return f"{op}[{relation}].{child}"


def render_intersect(a: str, b: str) -> str:
    """Operands in canonical (sorted) order, so both orders print alike."""
    if b < a:
        a, b = b, a
    return f"Intersect({a}, {b})"


def render_superlative(kind: str, key: str, set_form: str) -> str:
    return f"{kind}({set_form}, R[{key}])"


def render_call(method: str, *args: str) -> str:
    """``method(a)`` or ``method(a, b)``."""
    return f"{method}({', '.join(args)})"


class LogicalForm:
    """Base node. ``printed`` is the canonical text."""

    __slots__ = ("printed",)

    def __eq__(self, other):
        return type(other) is type(self) and other.printed == self.printed

    def __hash__(self):
        return hash(self.printed)

    def __repr__(self):
        return self.printed


class ValueLit(LogicalForm):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value
        self.printed = print_value(value)


class TypeSet(LogicalForm):
    """All entities of one type; shorthand for a reverse join on ``type``."""

    __slots__ = ("etype",)

    def __init__(self, etype: str):
        self.etype = etype
        self.printed = render_join("R", TYPE_RELATION, etype)


class RelationRef(LogicalForm):
    """A bare relation; appears only inside partial derivations."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.printed = f"R[{name}]"


class MethodRef(LogicalForm):
    """A bare interface method; appears only inside partial derivations."""

    __slots__ = ("method",)

    def __init__(self, method: InterfaceMethod):
        self.method = method
        self.printed = method.name


class ReverseJoin(LogicalForm):
    __slots__ = ("relation", "child")

    def __init__(self, relation: str, child: LogicalForm):
        self.relation = relation
        self.child = child
        self.printed = render_join("R", relation, child.printed)


class ForwardJoin(LogicalForm):
    __slots__ = ("relation", "child")

    def __init__(self, relation: str, child: LogicalForm):
        self.relation = relation
        self.child = child
        self.printed = render_join("F", relation, child.printed)


class Intersect(LogicalForm):
    """Intersection; children are kept in canonical (printed) order so that
    the two operand orders collapse to one form."""

    __slots__ = ("left", "right")

    def __init__(self, a: LogicalForm, b: LogicalForm):
        if b.printed < a.printed:
            a, b = b, a
        self.left = a
        self.right = b
        self.printed = render_intersect(a.printed, b.printed)


ARGMAX = "argmax"
ARGMIN = "argmin"


class Superlative(LogicalForm):
    __slots__ = ("kind", "set_lf", "key")

    def __init__(self, kind: str, set_lf: LogicalForm, key: str):
        assert kind in (ARGMAX, ARGMIN)
        self.kind = kind
        self.set_lf = set_lf
        self.key = key
        self.printed = render_superlative(kind, key, set_lf.printed)


class Call(LogicalForm):
    """Root node denoting a method call. ``printed``, when given, must be
    the string :func:`render_call` makes of the method and arguments (the
    parser's chart passes the one its offer already holds)."""

    __slots__ = ("method", "args")

    def __init__(self, method: InterfaceMethod, args: tuple[LogicalForm, ...],
                 printed: str | None = None):
        if len(args) != len(method.params):
            raise ExecutionError(
                f"{method.name}: arity {len(method.params)}, got {len(args)} arguments"
            )
        self.method = method
        self.args = args
        self.printed = (render_call(method.name, *(a.printed for a in args)) if printed is None
                        else printed)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def evaluate(lf: LogicalForm, state: State, memo: dict | None = None) -> frozenset[Value]:
    """Denotation of a non-root form: a set of values.

    Without ``memo`` the set is computed from scratch. With it (a state's
    :attr:`~nlinstruct.kb.State.denotations`, which must belong to
    ``state``), every node's set, children included, is read from the memo
    when it holds the node and written to it when computed. The memo is
    keyed by the node's (class, printed form) identity, which determines
    its denotation because distinct value literals print distinctly.

    A set of one value is :data:`~nlinstruct.kb.SINGLETONS`' shared set
    and an empty one is one shared empty set, with or without ``memo``;
    a join of one value returns the state's index set itself. So a
    state's memo, the filter's argument verdicts and the ``MethodCall``
    arguments built from them hold no copies of these sets. The shared
    table is never emptied; it grows only with the distinct values."""
    if memo is None:
        return _denote(lf, state, None)
    key = (lf.__class__, lf.printed)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _denote(lf, state, memo)
    return out


def _denote(lf: LogicalForm, state: State, memo: dict | None) -> frozenset[Value]:
    if isinstance(lf, ValueLit):
        return SINGLETONS[lf.value]
    if isinstance(lf, TypeSet):
        return state.subjects(TYPE_RELATION, SymVal(lf.etype))
    if isinstance(lf, ReverseJoin):
        child = evaluate(lf.child, state, memo)
        if len(child) == 1:
            (obj,) = child
            return state.subjects_matching(lf.relation, obj)
        out: set[Value] = set()
        for obj in child:
            out.update(state.subjects_matching(lf.relation, obj))
        return frozen(out)
    if isinstance(lf, ForwardJoin):
        child = evaluate(lf.child, state, memo)
        if len(child) == 1:
            (sub,) = child
            return state.objects(sub, lf.relation)
        out = set()
        for sub in child:
            out.update(state.objects(sub, lf.relation))
        return frozen(out)
    if isinstance(lf, Intersect):
        return frozen(evaluate(lf.left, state, memo) & evaluate(lf.right, state, memo))
    if isinstance(lf, Superlative):
        members = evaluate(lf.set_lf, state, memo)
        best: int | None = None
        winners: list[Value] = []
        for m in members:
            vals = [o.value for o in state.objects(m, lf.key) if isinstance(o, IntVal)]
            if not vals:
                continue
            score = max(vals) if lf.kind == ARGMAX else min(vals)
            if best is None or (score > best if lf.kind == ARGMAX else score < best):
                best = score
                winners = [m]
            elif score == best:
                winners.append(m)
        return frozen(winners)
    raise ExecutionError(f"cannot evaluate {type(lf).__name__} as a set")


def execute_to_call(lf: LogicalForm, state: State, memo: dict | None = None) -> MethodCall:
    """Assemble the method call denoted by a root form, without invoking
    it. ``memo`` is passed to :func:`evaluate` for every argument."""
    if not isinstance(lf, Call):
        raise ExecutionError(f"not a root call: {lf.printed}")
    args = tuple(evaluate(a, state, memo) for a in lf.args)
    return MethodCall(lf.method, args)  # conformance errors surface here
