"""Bottom-up beam-search parser over a (category, size) chart.

Rules either anchor to utterance tokens (numbers, ordinals, token spans
matching knowledge-base text values) or float freely (relations, entity
types, interface methods, enum symbols), so an utterance full of unseen
words still yields candidates. Composition is type-directed by the declared
relation signatures:

  R[r].v      for a value literal matching r's object kind
  R[r].z      additionally for entity sets when r is entity-valued
  F[r].z      entity-valued r only (objects of subjects in z)
  Intersect   two distinct entity sets with disjoint anchored spans
  argmax/min  non-superlative entity set plus an integer-valued relation
  call        method plus per-parameter arguments, at the root

Self-intersections and directly nested superlatives are excluded: they
only denote what a smaller form already denotes, or permutation twins
that no feature can separate.

Each cell keeps at most ``beam_size`` derivations, ranked by model score
with ties broken on the printed form and the spans, so runs are
reproducible. Derivations are deduplicated chart-wide on (category,
printed form, anchored spans), keeping the smallest size.

Only cells a root can read are built: entity sets up to size
``max_rules - 2`` (a set of size s feeds only forms of size s + 2 or more)
and roots up to ``max_rules``. The eager reference chart
(``tests/oracles.py``) builds every set cell up to ``max_rules``; the sets
it builds beyond ``max_rules - 2`` come after every other set offer, so
their dedup keys reject only each other, and both charts return the same
roots.

Every candidate is scored when it is offered, from its two-int *score
key* (``bits``: the triggered predicates its form uses; ``packed``: its
rule counts, its untriggered predicate uses per kind and its size, in
fixed-width fields; see :mod:`nlinstruct.features`). Keys compose: a
leaf's key comes from its one predicate and rule, and a composite's is
its rule's local key with its children's ``bits`` OR-ed in and their
``packed`` added. The scorer built once per parse, a
:class:`~nlinstruct.features.ChartScorer`, maps a key to the same float,
bit for bit, as ``kernels.dot`` over the feature dict the key decodes to.
That float is the derivation's ``score``, which the trainer reads too.
Root derivations get the full feature set (including missing-predicate
features); partial derivations the templates that are well defined on
fragments.

Candidates are scored before they are built, and before they are
rendered. Every composite offer is made by one loop, ``walk`` in
:func:`generate_candidates`. It takes a rule, a fixed *left part* (a join's
or a superlative's relation, an intersection's left set, a call's method,
or a two-argument call's method and first argument) with its share of the
score key and its spans, and a list of right children: a settled cell, or
a filtered pool of one, in rank order. For each right child, in that
order, it

1. composes the score key: the left part's ``bits`` OR-ed with the
   child's, their ``packed`` added;
2. reads the score from the scorer's memo, scoring on a miss;
3. drops the pair if that score is strictly below the cell's running cut,
   the beam-th best score among the offers the cell has stored so far
   (see ``_Open``);
4. merges the spans, when the left part has any, and drops a pair that
   claims a token twice (an intersection also drops a right operand that
   prints as its left one);
5. renders the printed form with ``logic``'s ``render_*`` function for the
   rule, from the parts' printed forms: the string its logical form will
   print as;
6. deduplicates on (category, printed form, anchored spans), the key the
   eager reference chart (``tests/oracles.py``) uses;
7. stores the offer in its cell, its children the left part's plus the
   right child.

So a dropped pair is never span-merged, rendered, deduplicated or stored.
Every cell, leaf, set or root, settles by one rule: its offers are put in
rank order, (-score, printed form, spans), and the first ``beam_size`` of
them survive, in that order. Only those get a logical form and a
``Derivation`` (with the logic filter on, only the root survivors whose
arguments pass; see below); a root's ``Call`` takes its offer's string as
its printed form rather than rendering it again.

Dropping is exact, with no float margin. The running cut only rises, so a
dropped offer is below the final cut too, and ties with the cut are never
dropped; so neither the order in which a cell's offers come nor which of
them were dropped changes its survivors. A dropped offer leaves no dedup
key, yet no later offer can meet it: when no two leaves share a
(category, printed form) at different spans, a printed form fixes its
spans, and each form is offered once. The one printing coincidence, the
``anchor-ordinal`` leaf ``R[index].k`` against the join that builds the
same form at size 3 (a ``TypeSet`` leaf would meet its join the same
way), always meets a leaf, and leaves are never dropped. A parse whose
leaves have such a twin (an ordinal word and the same number as a digit,
a text value matched twice) can build one form at two spans or two
sizes, the first of which must win, so its cells drop nothing.

The score key is the only description of a derivation's features: its
feature dict (``Derivation.feats``) is decoded from the key on first read.
Readers are the gradient, ``Candidate.features`` and ``parse --explain``,
all of which see only the candidates that survive the beams and the
filter.

Inference has one path, :func:`infer`: parse, execute each root's call
against the state and, with the logic filter on, drop the roots with an
argument that does not fit its parameter and the calls that raise or
change nothing. Training and evaluation reach it through
:meth:`Pipeline.analyze`, ``nlinstruct parse`` directly. The filter judges
arguments, not roots: many roots share an argument derivation, and each
(argument, method, parameter position) is evaluated and checked once per
parse. The roots that survive a root cell's beam are judged on their
arguments when the cell settles, and only those whose arguments all pass
get a ``Call`` and a ``Derivation``; their calls are executed once the
chart is done. It pays only for new work across parses too: argument sets
and call outcomes are memoized on the state (see
:class:`~nlinstruct.kb.State`), so a state parsed again in a later epoch,
fold or grid point reuses them. An executed call's result is a state
derived from the parsed one, held as its few changed triples.

:func:`infer` runs with the cycle collector paused. A parse fills its chart
with short-lived offers, forms, derivations and states, which the
collector would otherwise sweep again and again while they are still
alive; yet a parse makes no reference cycle (``tests/test_parser.py``
checks that ``gc.collect()`` finds nothing after parses of every domain),
so reference counting frees all of it as before. The caller's setting
comes back when :func:`infer` returns or raises; cycles that other threads
make meanwhile are collected after the parse.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from heapq import heappush, heapreplace
from math import inf
from typing import Callable, NamedTuple

from .domains.base import (
    COLLECTION,
    ENUM_ARG,
    INT_ARG,
    OBJ_ENTITY,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    SINGLE,
    Domain,
    MethodCall,
    _conforms,
    invoke,
)
from .errors import ConfigError, DomainLogicError
from .features import (
    KIND_METHOD,
    KIND_OPERATOR,
    KIND_RELATION,
    MAX_RULES_LIMIT,
    ChartScorer,
    Featurizer,
    UtteranceContext,
    tokenize,
)
from .kb import TYPE_RELATION, IntVal, State, SymVal, TextVal
from .logic import (
    ARGMAX,
    ARGMIN,
    Call,
    ForwardJoin,
    Intersect,
    LogicalForm,
    MethodRef,
    RelationRef,
    ReverseJoin,
    Superlative,
    TypeSet,
    ValueLit,
    evaluate,
    execute_to_call,  # not called here; kept as perfbench's tracer patches it by this name
    render_call,
    render_intersect,
    render_join,
    render_superlative,
)

CAT_VALUE = "Value"
CAT_SET = "EntitySet"
CAT_REL = "Relation"
CAT_METHOD = "Method"
CAT_ROOT = "Root"

NUMBER_WORDS = {
    w: i + 1
    for i, w in enumerate(
        "one two three four five six seven eight nine ten eleven twelve thirteen "
        "fourteen fifteen sixteen seventeen eighteen nineteen twenty".split()
    )
}
ORDINAL_WORDS = {
    w: i + 1
    for i, w in enumerate(
        "first second third fourth fifth sixth seventh eighth ninth tenth eleventh "
        "twelfth thirteenth fourteenth fifteenth sixteenth seventeenth eighteenth "
        "nineteenth twentieth".split()
    )
}


@dataclass
class ParserConfig:
    """``beam_size`` is a positive int; ``max_rules`` is an int from 1 to
    :data:`MAX_RULES_LIMIT`."""

    beam_size: int = 200
    max_rules: int = 15

    def __post_init__(self):
        if type(self.beam_size) is not int or self.beam_size <= 0:
            raise ConfigError(f"beam size must be a positive integer, got {self.beam_size!r}")
        if type(self.max_rules) is not int:
            raise ConfigError(f"max rule applications must be an integer, got {self.max_rules!r}")
        if self.max_rules <= 0:
            raise ConfigError(f"max rule applications must be positive, got {self.max_rules}")
        if self.max_rules > MAX_RULES_LIMIT:
            raise ConfigError(
                f"max rule applications must be at most {MAX_RULES_LIMIT}, got {self.max_rules}")


class Derivation:
    """A chart entry. A derivation records only the ``rule`` it applied
    last; ``bits`` and ``packed``, its score key (see
    :mod:`nlinstruct.features`), set by the chart, hold its rule counts
    with the rest of what its features read."""

    __slots__ = ("lf", "category", "size_used", "spans", "children", "rule", "score",
                 "bits", "packed", "_context", "_feats")

    def __init__(self, lf: LogicalForm, category: str, size_used: int,
                 spans: tuple, children: tuple,
                 context: UtteranceContext | None = None, rule: str | None = None):
        self.lf = lf
        self.category = category
        self.size_used = size_used
        self.spans = spans
        self.children = children
        self.rule = rule
        self.score = 0.0
        self._context = context
        self._feats: dict | None = None

    @property
    def feats(self) -> dict | None:
        """The feature dict, decoded from the score key by the parse's
        utterance context on first read and kept; None for a derivation
        built without one."""
        if self._feats is None and self._context is not None:
            self._feats = self._context.features(self, self.category == CAT_ROOT)
        return self._feats

    def __repr__(self):
        return f"Derivation({self.category}, size={self.size_used}, {self.lf.printed})"


def merge_spans(a: tuple, b: tuple) -> tuple | None:
    """Union of two span sets, or None when any token is claimed twice."""
    if not a:
        return b
    if not b:
        return a
    for i1, j1 in a:
        for i2, j2 in b:
            if i1 < j2 and i2 < j1:
                return None
    return tuple(sorted(set(a) | set(b)))


def _compose(rule: str, children: tuple) -> LogicalForm:
    """The logical form a composite rule builds from its children."""
    a, b = children
    if rule == "intersect":
        return Intersect(a.lf, b.lf)
    # a join's or a superlative's children are (relation, set or value)
    if rule == "rjoin":
        return ReverseJoin(a.lf.name, b.lf)
    if rule == "fjoin":
        return ForwardJoin(a.lf.name, b.lf)
    return Superlative(rule, b.lf, a.lf.name)


def _build(offer: tuple, category: str, size_used: int, ctx: UtteranceContext) -> Derivation:
    """The derivation of an offer that survived its beam; a composite's
    form, built here, prints as the string the offer was deduplicated and
    ranked on. A root's call takes that string as its printed form rather
    than rendering it again."""
    neg_score, printed, spans, children, rule, bits, packed, lf = offer
    if lf is None:
        if rule == "call":
            lf = Call(children[0].lf.method, tuple(c.lf for c in children[1:]), printed)
        else:
            lf = _compose(rule, children)
    d = Derivation(lf, category, size_used, spans, children, ctx, rule)
    d.bits = bits
    d.packed = packed
    d.score = -neg_score
    return d


class _Open:
    """A cell's offers while it is open, and its running cut.

    ``best`` is a min-heap of the ``beam`` best scores among the offers
    stored so far; once it is full, ``best[0]`` is the score at which the
    beam would cut if no other offer came. That score only rises as offers
    come, so an offer scored strictly below it is below the cell's final
    cut and cannot survive: ``cut`` is that score (-inf before the heap is
    full, and always in a cell that may not drop), and a composite offer
    below it is dropped unstored. Ties are never dropped."""

    __slots__ = ("offers", "best", "beam", "droppable", "cut")

    def __init__(self, beam: int, droppable: bool):
        self.offers: list[tuple] = []
        self.best: list[float] = []
        self.beam = beam
        self.droppable = droppable
        self.cut = -inf

    def add(self, offer: tuple, total: float) -> None:
        self.offers.append(offer)
        best = self.best
        if len(best) < self.beam:
            heappush(best, total)
            if len(best) < self.beam:
                return
        elif total > best[0]:
            heapreplace(best, total)
        else:
            return
        if self.droppable:
            self.cut = best[0]


def generate_candidates(
    tokens,
    state: State,
    domain: Domain,
    config: ParserConfig | None = None,
    weights: dict | None = None,
    featurizer: Featurizer | None = None,
    judge: Callable[[tuple], bool] | None = None,
) -> list[Derivation]:
    """All root derivations that survive their beams, ordered by (size, rank).

    With ``judge``, a root cell's survivors are passed to it as their
    children (method, argument, ...) when the cell settles, and only those
    it accepts are built and returned; the beam is cut before judging, so
    a rejected root still holds its place. Returns an empty list when the
    grammar produces no root at all (reported upstream as a parse
    failure).
    """
    config = config or ParserConfig()
    weights = weights if weights is not None else {}
    featurizer = featurizer or Featurizer(domain)
    ctx = featurizer.context(tuple(tokens))
    beam = config.beam_size
    max_rules = config.max_rules

    # a cell holds an _Open of offers, (-score, printed, spans, children,
    # rule, bits, packed, lf), until it is settled, then the derivations of
    # the offers that survive its beam; lf is None for a composite until it
    # is built. Offers rank as plain tuples: (printed, spans) is unique in a
    # cell
    cells: dict[tuple[str, int], _Open | list] = {}
    seen: set = set()
    # (category, printed) -> spans of the first leaf that prints so; a
    # second leaf that prints alike at other spans is a twin
    leaf_spans: dict[tuple[str, str], tuple] = {}
    twin = False
    scorer = ChartScorer(ctx, weights, max_rules)
    score = scorer.score
    # a composite's own share of its score key: one application of its
    # rule, plus the operator predicate that a superlative introduces
    local = {rule: ctx.key({}, {rule: 1}, 1) for rule in ("rjoin", "fjoin", "intersect", "call")}
    for kind in (ARGMAX, ARGMIN):
        local[kind] = ctx.key({(KIND_OPERATOR, kind): 1}, {kind: 1}, 1)

    def leaf(category: str, lf: LogicalForm, spans: tuple, rule: str, pred=None) -> None:
        """Offer a leaf; ``pred`` is the one predicate its form uses, as
        (kind, name), if any. Leaves are never dropped."""
        nonlocal twin
        key = (category, lf.printed, spans)
        if key in seen:
            return
        seen.add(key)
        if leaf_spans.setdefault(key[:2], spans) != spans:
            twin = True
        bits, packed = ctx.key({pred: 1} if pred else {}, {rule: 1}, 1)
        total = score(False, bits, packed)
        cell = cells.get((category, 1))
        if cell is None:
            cell = cells[category, 1] = _Open(beam, False)
        cell.add((-total, lf.printed, spans, (), rule, bits, packed, lf), total)

    def settle(category: str, size_used: int) -> None:
        cell = cells.get((category, size_used))
        if cell is None:
            return
        offers = cell.offers
        if len(offers) > beam:
            # the first `beam` in rank order score at or above the beam-th
            # best score, so sort only those
            cut = -cell.best[0]
            offers = [o for o in offers if o[0] <= cut]
        offers.sort()
        del offers[beam:]
        if judge is not None and category == CAT_ROOT:
            offers = [o for o in offers if judge(o[3])]
        cells[category, size_used] = [_build(o, category, size_used, ctx) for o in offers]

    # ---- size 1: anchored and floating leaves -----------------------------

    toks = list(tokens)
    has_index = "index" in domain.relations
    for i, tok in enumerate(toks):
        try:
            n = int(tok) if tok.isdigit() else NUMBER_WORDS.get(tok)
        except ValueError:  # a digit run too long for int() anchors no integer
            n = None
        span = ((i, i + 1),)
        if n is not None:
            leaf(CAT_VALUE, ValueLit(IntVal(n)), span, "anchor-int")
        k = ORDINAL_WORDS.get(tok)
        if k is not None:
            value = ValueLit(IntVal(k))
            leaf(CAT_VALUE, value, span, "anchor-int")
            if has_index:
                # prints like the rjoin that builds the same form at size 3
                leaf(CAT_SET, ReverseJoin("index", value), span, "anchor-ordinal",
                     (KIND_RELATION, "index"))

    text_values: dict[tuple, list[TextVal]] = {}
    for t in state.triples:
        if isinstance(t.object, TextVal):
            key = tuple(tokenize(t.object.value))
            if key and t.object not in text_values.setdefault(key, []):
                text_values[key].append(t.object)
    if text_values:
        longest = max(len(k) for k in text_values)
        for i in range(len(toks)):
            for j in range(i + 1, min(i + longest, len(toks)) + 1):
                for v in text_values.get(tuple(toks[i:j]), ()):
                    leaf(CAT_VALUE, ValueLit(v), ((i, j),), "anchor-text")

    for rel in sorted(domain.relations):
        leaf(CAT_REL, RelationRef(rel), (), "float-relation", (KIND_RELATION, rel))
    for etype in sorted(domain.entity_types):
        leaf(CAT_SET, TypeSet(etype), (), "float-type", (KIND_RELATION, TYPE_RELATION))
    for method in domain.methods:
        leaf(CAT_METHOD, MethodRef(method), (), "float-method", (KIND_METHOD, method.name))
    for sym in sorted(domain.enum_symbols):
        leaf(CAT_VALUE, ValueLit(SymVal(sym)), (), "float-sym")

    for cat in (CAT_VALUE, CAT_SET, CAT_REL, CAT_METHOD):
        settle(cat, 1)

    # ---- sizes 2..max: composition -----------------------------------------
    # Sets first, up to size max_rules - 2: a set of size s is read by
    # joins, superlatives, intersections and one-argument calls at s + 2,
    # by two-argument calls at s + 3 or later. Then roots. Dedup keys
    # carry their category, so the two loops reject none of each other's
    # offers.

    rel_specs = domain.relations
    rel_derivs = cells.get((CAT_REL, 1), [])
    int_rels = [d for d in rel_derivs if rel_specs[d.lf.name].object_kind == OBJ_INT]
    _VALUE_KIND = {OBJ_INT: IntVal, OBJ_TEXT: TextVal, OBJ_SYM: SymVal}

    def arg_pool(param, size_used):
        """The derivations of this size that a parameter can take: every
        entity set, or the literals of its kind."""
        if param.kind in (COLLECTION, SINGLE):
            return cells.get((CAT_SET, size_used), ())
        out = []
        for d in cells.get((CAT_VALUE, size_used), ()):
            v = d.lf.value
            if param.kind == INT_ARG and isinstance(v, IntVal):
                out.append(d)
            elif param.kind == ENUM_ARG and isinstance(v, SymVal) and v.name in param.symbols:
                out.append(d)
        return out

    memos = scorer.memo

    def walk(cell: _Open, is_root: bool, rule: str, left: tuple, lbits: int, lpacked: int,
             lspans: tuple, render: Callable[..., str], fixed: tuple, rights,
             exclude=None) -> None:
        """Offer to ``cell`` the composites of ``rule`` made of the left
        part ``left`` (its children; ``lbits`` and ``lpacked``, its share of
        the score key, the rule's own share included; ``lspans``) and each
        derivation of ``rights`` in turn. ``render(*fixed, right)`` makes
        the printed form from the right child's, and a right child that
        prints as ``exclude`` is skipped. See the module docstring for the
        steps."""
        memo = memos[is_root]
        category = CAT_ROOT if is_root else CAT_SET
        for b in rights:
            bits = lbits | b.bits
            packed = lpacked + b.packed
            total = memo.get((bits, packed))
            if total is None:
                total = score(is_root, bits, packed)
            if total < cell.cut:
                continue
            printed = b.lf.printed
            if printed == exclude:
                continue
            if lspans:
                spans = merge_spans(lspans, b.spans)
                if spans is None:
                    continue
            else:
                spans = b.spans
            printed = render(*fixed, printed)
            key = (category, printed, spans)
            if key in seen:
                continue
            seen.add(key)
            cell.add((-total, printed, spans, left + (b,), rule, bits, packed, None), total)

    for k in range(2, max_rules - 1):
        sets = cells[CAT_SET, k] = _Open(beam, not twin)
        child_size = k - 2
        if child_size >= 1:
            values: dict[type, list] = {}
            for c in cells.get((CAT_VALUE, child_size), ()):
                values.setdefault(type(c.lf.value), []).append(c)
            set_children = cells.get((CAT_SET, child_size), ())
            for rd in rel_derivs:
                rel = rd.lf.name
                obj = rel_specs[rel].object_kind
                if obj == OBJ_ENTITY:
                    joins = (("rjoin", "R", set_children), ("fjoin", "F", set_children))
                else:
                    joins = (("rjoin", "R", values.get(_VALUE_KIND.get(obj))),)
                for rule, op, rights in joins:
                    if rights:
                        bits, packed = local[rule]
                        walk(sets, False, rule, (rd,), bits | rd.bits, packed + rd.packed,
                             rd.spans, render_join, (op, rel), rights)
            # directly nested superlatives only breed permutation twins that
            # no feature can tell apart
            plain = [c for c in set_children if not isinstance(c.lf, Superlative)]
            for rd in int_rels if plain else ():
                for kind in (ARGMAX, ARGMIN):
                    bits, packed = local[kind]
                    walk(sets, False, kind, (rd,), bits | rd.bits, packed + rd.packed, rd.spans,
                         render_superlative, (kind, rd.lf.name), plain)

        int_bits, int_packed = local["intersect"]
        for i in range(1, (k - 1) // 2 + 1):
            j = k - 1 - i
            left = cells.get((CAT_SET, i), ())
            right = cells.get((CAT_SET, j), ())
            for x, a in enumerate(left):
                ap = a.lf.printed
                # x-with-x adds nothing; at i == j each pair is met once
                walk(sets, False, "intersect", (a,), int_bits | a.bits, int_packed + a.packed,
                     a.spans, render_intersect, (ap,), right[x:] if i == j else right, ap)
        settle(CAT_SET, k)

    # a call is a method, one application and at least one argument; the
    # left part is the method, or a two-argument call's method and first
    # argument
    call_bits, call_packed = local["call"]
    for k in range(3, max_rules + 1):
        roots = cells[CAT_ROOT, k] = _Open(beam, not twin)
        budget = k - 2
        for md in cells.get((CAT_METHOD, 1), ()):
            method = md.lf.method
            params = method.params
            mbits = call_bits | md.bits
            mpacked = call_packed + md.packed
            if len(params) == 1:
                walk(roots, True, "call", (md,), mbits, mpacked, md.spans,
                     render_call, (method.name,), arg_pool(params[0], budget))
            elif len(params) == 2:
                p0, p1 = params
                for i in range(1, budget):
                    pool0 = arg_pool(p0, i)
                    pool1 = arg_pool(p1, budget - i) if pool0 else ()
                    if not pool1:
                        continue
                    for a in pool0:
                        walk(roots, True, "call", (md, a), mbits | a.bits, mpacked + a.packed,
                             a.spans, render_call, (method.name, a.lf.printed), pool1)
        settle(CAT_ROOT, k)

    out: list[Derivation] = []
    for k in range(1, max_rules + 1):
        out.extend(cells.get((CAT_ROOT, k), ()))
    return out


_MISSING = object()


def _arguments(children: tuple, state: State, verdicts: dict) -> tuple | None:
    """The argument sets of a root made of ``children`` (method, argument,
    ...), or None when one does not fit its parameter.

    The filter judges arguments, not roots: ``verdicts`` holds, per parse,
    the verdict on each (argument derivation, method, parameter position)
    met so far, which is the argument's set when it conforms to that
    parameter (``domains.base._conforms``, the rule ``MethodCall``
    checks) and None when it does not. Roots share their argument
    derivations, so each is evaluated and judged once per parse. Sets are
    read through the state's denotation memo."""
    method = children[0].lf.method
    args = []
    for i, param in enumerate(method.params):
        arg = children[i + 1]
        key = (arg, method.name, i)
        verdict = verdicts.get(key, _MISSING)
        if verdict is _MISSING:
            value = evaluate(arg.lf, state, state.denotations)
            verdict = verdicts[key] = None if _conforms(param, value) else value
        if verdict is None:
            return None
        args.append(verdict)
    return tuple(args)


def _denotation(d: Derivation, state: State, domain: Domain, verdicts: dict) -> State | None:
    """Resulting state of a root derivation, or None when its call is
    rejected (an argument that does not fit its parameter, a domain
    exception, or no state change).

    A root with a failing argument (see :func:`_arguments`) is dropped
    without building a call; one whose arguments all pass gets its
    ``MethodCall`` without a second check.

    Each call's outcome is kept in the state's call-outcome memo under
    (application logic, call). A kept result is stored as its changes to
    the state and a weak reference to it: between parses the memo holds
    only the few changed entities and triples, and a call met again while
    its result is alive (later in the same parse) gets that same object."""
    args = _arguments(d.children, state, verdicts)
    if args is None:
        return None
    call = MethodCall.conforming(d.lf.method, args)
    outcomes = state.call_outcomes
    key = (domain.logic, call)
    entry = outcomes.get(key, _MISSING)
    if entry is _MISSING:
        try:
            result = invoke(domain, state, call)
        except DomainLogicError:
            result = None
        if result is None or result == state:
            outcomes[key] = None
            return None
        # as tuples, which take a third of the room of small frozensets
        outcomes[key] = [tuple(map(tuple, state.changes_to(result))), weakref.ref(result)]
        return result
    if entry is None:
        return None
    result = entry[1]()
    if result is None:
        result = state.with_changes(entry[0])
        entry[1] = weakref.ref(result)
    return result


class Candidate(NamedTuple):
    deriv: Derivation
    denotation: State | None  # None: rejected call (only kept when unfiltered)

    @property
    def features(self) -> dict | None:
        """The derivation's feature dict, built on first read."""
        return self.deriv.feats


def infer(
    tokens,
    state: State,
    domain: Domain,
    config: ParserConfig | None = None,
    weights: dict | None = None,
    featurizer: Featurizer | None = None,
    use_filter: bool = True,
) -> list[Candidate]:
    """Full inference for one instruction: parse, execute every root
    derivation, and with ``use_filter`` drop those with an argument that
    does not fit its parameter, or whose call raises or leaves the state
    unchanged. Each argument is judged once per parse (see
    :func:`_arguments`); argument sets and invocation outcomes are
    memoized per state, so a state parsed again (another epoch, fold or
    grid point) reuses them. Candidates keep the chart's order; an empty
    list is a parse failure.

    With ``use_filter``, roots are judged on their arguments as each root
    cell settles, so a root with a failing argument gets no ``Call`` and
    no ``Derivation``; the rest are executed after the chart is done.
    Without it every root is built and executed, and a rejected one is kept
    with the denotation None.

    The cycle collector is paused while it runs (see the module docstring):
    a parse makes no reference cycle, so reference counting frees what it
    drops. If the collector was enabled it is enabled again on return and
    on any exception; if the caller had disabled it, it stays disabled."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        verdicts: dict = {}
        if use_filter:
            def judge(children: tuple) -> bool:
                return _arguments(children, state, verdicts) is not None
        else:
            judge = None
        cands = generate_candidates(tokens, state, domain, config, weights, featurizer, judge)
        out = []
        for d in cands:
            denot = _denotation(d, state, domain, verdicts)
            if denot is None and use_filter:
                continue
            out.append(Candidate(d, denot))
        return out
    finally:
        if paused:
            gc.enable()


class Pipeline:
    """Inference bundle used by training and evaluation: domain lookup,
    parser configuration, feature templates, optional logic filtering.

    ``domain_source`` is any callable from domain id to Domain; experiment
    runners pass an instrumented registry so that every access is logged
    against the current protocol phase.
    """

    def __init__(
        self,
        domain_source: Callable[[str], Domain],
        config: ParserConfig | None = None,
        use_new_features: bool = True,
        use_filter: bool = True,
    ):
        self.domain_source = domain_source
        self.config = config or ParserConfig()
        self.use_new_features = use_new_features
        self.use_filter = use_filter
        self._featurizers: dict[str, Featurizer] = {}

    def featurizer(self, domain: Domain) -> Featurizer:
        f = self._featurizers.get(domain.id)
        if f is None:
            f = Featurizer(domain, self.use_new_features)
            self._featurizers[domain.id] = f
        return f

    def analyze(self, example, weights: dict, parses: dict | None = None) -> list[Candidate]:
        """:func:`infer` on one example under this pipeline's settings.

        Denotations are computed for all kept candidates because both the
        training objective and scoring need them. Empty result = parse
        failure.

        ``parses``, when given, maps examples to candidate lists that this
        pipeline parsed under weights of the same content as ``weights``:
        a list it holds is returned as it is, and one parsed here is added
        to it. The domain is looked up either way, so a logging
        ``domain_source`` sees the same accesses. A returned list may go
        to several callers: read it, never change it."""
        domain = self.domain_source(example.domain_id)
        cands = None if parses is None else parses.get(example)
        if cands is None:
            cands = infer(tokenize(example.utterance), example.initial, domain,
                          self.config, weights, self.featurizer(domain), self.use_filter)
            if parses is not None:
                parses[example] = cands
        return cands
