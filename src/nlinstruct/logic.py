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

Each node caches its canonical printed form; structural identity is the
pair (node class, printed form). A composite's printed form comes from one
of the ``render_*`` functions below, applied to its parts' printed forms.
The constructors print through them, and so does the parser's chart, which
renders each candidate before it builds anything: it deduplicates chart
entries on (category, printed form, anchored spans) and breaks score ties
on the printed form, so it relies on a candidate's rendered string being
exactly the ``printed`` of the node it would build. For roots the chart
writes :func:`render_call`'s format out inline and hands the string to the
``Call`` it builds.
"""

from __future__ import annotations

import re

from .domains.base import Domain, InterfaceMethod, MethodCall
from .errors import ExecutionError, LogicalFormSyntaxError
from .kb import TYPE_RELATION, Entity, IntVal, State, SymVal, TextVal, Value

REL = "relation"
METH = "method"
OP = "operator"

_EMPTY: frozenset = frozenset()
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


def render_superlative(kind: str, set_form: str, key: str) -> str:
    return f"{kind}({set_form}, R[{key}])"


def render_call(method: str, args) -> str:
    """``method(a)`` or ``method(a, b)``; the parser's root offers write
    this format out inline."""
    return f"{method}({', '.join(args)})"


def _merge_preds(*parts):
    merged: dict[tuple[str, str], int] = {}
    for part in parts:
        for key, n in part.items():
            merged[key] = merged.get(key, 0) + n
    return merged


class LogicalForm:
    """Base node. ``printed`` is the canonical text, ``node_count`` the
    rule-application count of the canonical derivation, ``preds`` the
    multiset of (kind, name) predicates occurring in the tree.

    ``preds`` is collected on first read and kept: the parser's chart
    builds many forms whose predicates nobody reads (it scores them from
    its own composed counts), so building the dict eagerly is waste."""

    __slots__ = ("printed", "node_count", "_preds")

    @property
    def preds(self) -> dict[tuple[str, str], int]:
        try:
            return self._preds
        except AttributeError:
            self._preds = preds = self._collect_preds()
            return preds

    def _collect_preds(self) -> dict[tuple[str, str], int]:
        raise NotImplementedError

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
        self.node_count = 1

    def _collect_preds(self):
        return {}


class TypeSet(LogicalForm):
    """All entities of one type; shorthand for a reverse join on ``type``."""

    __slots__ = ("etype",)

    def __init__(self, etype: str):
        self.etype = etype
        self.printed = render_join("R", TYPE_RELATION, etype)
        self.node_count = 1

    def _collect_preds(self):
        return {(REL, TYPE_RELATION): 1}


class RelationRef(LogicalForm):
    """A bare relation; appears only inside partial derivations."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.printed = f"R[{name}]"
        self.node_count = 1

    def _collect_preds(self):
        return {(REL, self.name): 1}


class MethodRef(LogicalForm):
    """A bare interface method; appears only inside partial derivations."""

    __slots__ = ("method",)

    def __init__(self, method: InterfaceMethod):
        self.method = method
        self.printed = method.name
        self.node_count = 1

    def _collect_preds(self):
        return {(METH, self.method.name): 1}


class ReverseJoin(LogicalForm):
    __slots__ = ("relation", "child")

    def __init__(self, relation: str, child: LogicalForm):
        self.relation = relation
        self.child = child
        self.printed = render_join("R", relation, child.printed)
        self.node_count = 2 + child.node_count

    def _collect_preds(self):
        return _merge_preds({(REL, self.relation): 1}, self.child.preds)


class ForwardJoin(LogicalForm):
    __slots__ = ("relation", "child")

    def __init__(self, relation: str, child: LogicalForm):
        self.relation = relation
        self.child = child
        self.printed = render_join("F", relation, child.printed)
        self.node_count = 2 + child.node_count

    def _collect_preds(self):
        return _merge_preds({(REL, self.relation): 1}, self.child.preds)


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
        self.node_count = 1 + a.node_count + b.node_count

    def _collect_preds(self):
        return _merge_preds(self.left.preds, self.right.preds)


ARGMAX = "argmax"
ARGMIN = "argmin"


class Superlative(LogicalForm):
    __slots__ = ("kind", "set_lf", "key")

    def __init__(self, kind: str, set_lf: LogicalForm, key: str):
        assert kind in (ARGMAX, ARGMIN)
        self.kind = kind
        self.set_lf = set_lf
        self.key = key
        self.printed = render_superlative(kind, set_lf.printed, key)
        self.node_count = 2 + set_lf.node_count

    def _collect_preds(self):
        return _merge_preds({(OP, self.kind): 1, (REL, self.key): 1}, self.set_lf.preds)


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
        self.printed = (render_call(method.name, [a.printed for a in args]) if printed is None
                        else printed)
        self.node_count = 2 + sum(a.node_count for a in args)

    def _collect_preds(self):
        return _merge_preds({(METH, self.method.name): 1}, *(a.preds for a in self.args))


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
    its denotation because distinct value literals print distinctly."""
    if memo is None:
        return _denote(lf, state, None)
    key = (lf.__class__, lf.printed)
    out = memo.get(key)
    if out is None:
        # about half the sets a chart asks for are empty: store one object
        out = memo[key] = _denote(lf, state, memo) or _EMPTY
    return out


def _denote(lf: LogicalForm, state: State, memo: dict | None) -> frozenset[Value]:
    if isinstance(lf, ValueLit):
        return frozenset((lf.value,))
    if isinstance(lf, TypeSet):
        return state.subjects(TYPE_RELATION, SymVal(lf.etype))
    if isinstance(lf, ReverseJoin):
        child = evaluate(lf.child, state, memo)
        out: set[Value] = set()
        for obj in child:
            out.update(state.subjects_matching(lf.relation, obj))
        return frozenset(out)
    if isinstance(lf, ForwardJoin):
        child = evaluate(lf.child, state, memo)
        out = set()
        for sub in child:
            if isinstance(sub, Entity):
                out.update(state.objects(sub, lf.relation))
        return frozenset(out)
    if isinstance(lf, Intersect):
        return evaluate(lf.left, state, memo) & evaluate(lf.right, state, memo)
    if isinstance(lf, Superlative):
        members = evaluate(lf.set_lf, state, memo)
        best: int | None = None
        winners: list[Value] = []
        for m in members:
            if not isinstance(m, Entity):
                continue
            vals = [o.value for o in state.objects(m, lf.key) if isinstance(o, IntVal)]
            if not vals:
                continue
            score = max(vals) if lf.kind == ARGMAX else min(vals)
            if best is None or (score > best if lf.kind == ARGMAX else score < best):
                best = score
                winners = [m]
            elif score == best:
                winners.append(m)
        return frozenset(winners)
    raise ExecutionError(f"cannot evaluate {type(lf).__name__} as a set")


def execute_to_call(lf: LogicalForm, state: State, memo: dict | None = None) -> MethodCall:
    """Assemble the method call denoted by a root form, without invoking
    it. ``memo`` is passed to :func:`evaluate` for every argument."""
    if not isinstance(lf, Call):
        raise ExecutionError(f"not a root call: {lf.printed}")
    args = tuple(evaluate(a, state, memo) for a in lf.args)
    return MethodCall(lf.method, args)  # conformance errors surface here


# ---------------------------------------------------------------------------
# Textual notation
# ---------------------------------------------------------------------------

_ESCAPE = re.compile(r"\\(.)")
_TOKEN = re.compile(r"\s*(R\[|F\[|[A-Za-z_][A-Za-z0-9_]*|-?\d+|\"(?:[^\"\\]|\\.)*\"|[][().,])")


def _lex(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise LogicalFormSyntaxError(f"bad character at {pos}: {text[pos:pos + 10]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], domain: Domain | None):
        self.toks = tokens
        self.i = 0
        self.domain = domain

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise LogicalFormSyntaxError("unexpected end of input")
        if expected is not None and tok != expected:
            raise LogicalFormSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def form(self) -> LogicalForm:
        tok = self.take()
        if tok in ("R[", "F["):
            rel = self.take()
            self.take("]")
            if self.peek() != ".":
                raise LogicalFormSyntaxError("a join needs a child: R[rel].child")
            self.take(".")
            child = self.form()
            if tok == "R[":
                if (
                    rel == TYPE_RELATION
                    and isinstance(child, ValueLit)
                    and isinstance(child.value, SymVal)
                    and not child.value.name.isupper()
                ):
                    return TypeSet(child.value.name)
                return ReverseJoin(rel, child)
            return ForwardJoin(rel, child)
        if tok == "Intersect":
            self.take("(")
            a = self.form()
            self.take(",")
            b = self.form()
            self.take(")")
            return Intersect(a, b)
        if tok in (ARGMAX, ARGMIN):
            self.take("(")
            inner = self.form()
            self.take(",")
            self.take("R[")
            key = self.take()
            self.take("]")
            self.take(")")
            return Superlative(tok, inner, key)
        if tok.lstrip("-").isdigit():
            return ValueLit(IntVal(int(tok)))
        if tok.startswith('"'):
            return ValueLit(TextVal(_ESCAPE.sub(r"\1", tok[1:-1])))
        if self.peek() == "(":
            if self.domain is None:
                raise LogicalFormSyntaxError(f"method call {tok!r} needs a domain to resolve")
            try:
                method = self.domain.method(tok)
            except KeyError as exc:
                raise LogicalFormSyntaxError(str(exc)) from None
            self.take("(")
            args = [self.form()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.form())
            self.take(")")
            return Call(method, tuple(args))
        if self.peek() == ".":
            # bare join rel.child is shorthand for R[rel].child
            self.take(".")
            return ReverseJoin(tok, self.form())
        if tok.isupper():
            return ValueLit(SymVal(tok))
        if tok[0].isupper():
            # capitalized bare name: an entity-type symbol
            return ValueLit(SymVal(tok))
        return ValueLit(TextVal(tok))


def parse_lf(text: str, domain: Domain | None = None) -> LogicalForm:
    """Parse the canonical notation back into a logical form. Round-trips
    with ``lf.printed`` up to canonicalization of intersection order."""
    p = _Parser(_lex(text), domain)
    lf = p.form()
    if p.peek() is not None:
        raise LogicalFormSyntaxError(f"trailing input: {p.toks[p.i:]}")
    return lf
