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
with ties broken on the printed form, so runs are reproducible. Derivations
are deduplicated chart-wide on (category, printed form, anchored spans),
keeping the smallest size.

Only cells a root can read are built: entity sets up to size
``max_rules - 2`` (a set of size s feeds only forms of size s + 2 or more)
and roots up to ``max_rules``. The eager reference chart
(``tests/oracles.py``) builds every set cell up to ``max_rules``; the sets
it builds beyond ``max_rules - 2`` come after every other set offer, so
their dedup keys reject only each other, and both charts return the same
roots.

Every candidate is scored when it is offered, from a two-int *score key*
rather than from its predicates and rules. The key (``bits``: the
triggered predicates its form uses; ``packed``: its size, its untriggered
predicate uses per kind and its weighted rule counts, in fixed-width
fields) composes: a leaf's key comes from its form's ``preds``, and a
composite's is its rule's local key with its children's ``bits`` OR-ed in
and their ``packed`` added, because a form's predicates, rule counts and
size are its children's plus its rule's own. The scorer that
:meth:`UtteranceContext.scorer` compiles once per parse maps a key to the
same float, bit for bit, as ``kernels.dot`` over the feature dict (see
:class:`~nlinstruct.features.ChartScorer` for why the key determines every
weighted feature value and why no field overflows). Root derivations get
the full feature set (including missing-predicate features); partial
derivations the templates that are well defined on fragments.

Candidates are scored before they are built. A composite candidate is
first rendered: its printed form comes from ``logic``'s ``render_*``
function for its rule, applied to its children's printed forms, which is
the string its logical form will print as. It is deduplicated on
(category, printed form, anchored spans), the same key the eager
reference chart (``tests/oracles.py``) uses, then scored from its composed
key and offered to its cell with its printed form. When a cell is
settled, only the offers that survive its beam get a logical form and a
``Derivation``: all of them when the cell fits the beam, else those scored
above the beam's last score plus as many of the offers tied with it as
the beam has room for, chosen by (printed form, spans). Pruned candidates
keep their dedup keys, so a later duplicate of a pruned form is still
rejected.

Root offers, the most numerous, are made inline: a call's printed form is
``render_call``'s ``method(a)`` or ``method(a, b)``, written out with the
method's (and first argument's) part of the string and of the score key
taken once, outside the loop over the last argument. A surviving root's
``Call`` takes that string as its printed form instead of rendering it
again.

So the chart never builds a composite's predicate or rule dict: a form's
``preds`` and a derivation's ``rules`` are built on first read, as is
the feature dict (``Derivation.feats``). Readers are the gradient,
``Candidate.features`` and ``parse --explain``, all of which see only the
candidates that survive the beams and the filter.

Inference has one path, :func:`infer`: parse, execute each root's call
against the state and, with the logic filter on, drop the roots with an
argument that does not fit its parameter and the calls that raise or
change nothing. Training and evaluation reach it through
:meth:`Pipeline.analyze`, ``nlinstruct parse`` directly. The filter judges
arguments, not roots: many roots share an argument derivation, and each
(argument, method, parameter position) is evaluated and checked once per
parse, so a root is assembled only from arguments that passed. It pays
only for new work across parses too: argument sets and call outcomes are
memoized on the state (see :class:`~nlinstruct.kb.State`), so a state
parsed again in a later epoch, fold or grid point reuses them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
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
from .features import Featurizer, UtteranceContext, tokenize
from .kb import IntVal, State, SymVal, TextVal
from .logic import (
    ARGMAX,
    ARGMIN,
    OP,
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



#: The largest rule budget a parser accepts, twice the paper's 15. Chart
#: time and memory grow faster than linearly in the budget: ``nlinstruct
#: parse`` on a small lighting state at beam 200 peaks at about 32 MB of
#: RSS at 15 rules and 196 MB at 30.
MAX_RULES_LIMIT = 30


@dataclass
class ParserConfig:
    """``beam_size=None`` disables pruning (exhaustive search).
    ``max_rules`` runs from 1 to :data:`MAX_RULES_LIMIT`."""

    beam_size: int | None = 200
    max_rules: int = 15

    def __post_init__(self):
        if self.beam_size is not None and self.beam_size <= 0:
            raise ConfigError(f"beam size must be positive, got {self.beam_size}")
        if self.max_rules <= 0:
            raise ConfigError(f"max rule applications must be positive, got {self.max_rules}")
        if self.max_rules > MAX_RULES_LIMIT:
            raise ConfigError(
                f"max rule applications must be at most {MAX_RULES_LIMIT}, got {self.max_rules}")


class Derivation:
    """A chart entry. ``rules`` maps rule name to application count and
    sums to ``size_used``. A derivation the chart builds records only the
    ``rule`` it applied last; its counts are that one application plus its
    children's, summed on first read. ``bits`` and ``packed`` are its
    score key (see :class:`~nlinstruct.features.ChartScorer`), set by
    the chart."""

    __slots__ = ("lf", "category", "size_used", "spans", "children", "rule", "score",
                 "bits", "packed", "_rules", "_context", "_feats")

    def __init__(self, lf: LogicalForm, category: str, size_used: int,
                 spans: tuple, children: tuple, rules: dict | None = None,
                 context: UtteranceContext | None = None, rule: str | None = None):
        self.lf = lf
        self.category = category
        self.size_used = size_used
        self.spans = spans
        self.children = children
        self.rule = rule
        self.score = 0.0
        if rules is not None:
            self._rules = rules
        self._context = context
        self._feats: dict | None = None

    @property
    def rules(self) -> dict:
        try:
            return self._rules
        except AttributeError:
            rules = {self.rule: 1}
            for c in self.children:
                for name, n in c.rules.items():
                    rules[name] = rules.get(name, 0) + n
            self._rules = rules
            return rules

    @property
    def feats(self) -> dict | None:
        """The feature dict, built from the parse's utterance context on
        first read and kept; None for a derivation built without one."""
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
    if rule == "intersect":
        return Intersect(children[0].lf, children[1].lf)
    if rule == "rjoin":
        return ReverseJoin(children[0].lf.name, children[1].lf)
    if rule == "fjoin":
        return ForwardJoin(children[0].lf.name, children[1].lf)
    return Superlative(rule, children[0].lf, children[1].lf.name)


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
    d = Derivation(lf, category, size_used, spans, children, None, ctx, rule)
    d.bits = bits
    d.packed = packed
    d.score = -neg_score
    return d


def generate_candidates(
    tokens,
    state: State,
    domain: Domain,
    config: ParserConfig | None = None,
    weights: dict | None = None,
    featurizer: Featurizer | None = None,
) -> list[Derivation]:
    """All root derivations that survive their beams, ordered by (size, rank).

    Returns an empty list when the grammar produces no root at all (reported
    upstream as a parse failure).
    """
    config = config or ParserConfig()
    weights = weights if weights is not None else {}
    featurizer = featurizer or Featurizer(domain)
    ctx = featurizer.context(tuple(tokens))
    beam = config.beam_size
    max_rules = config.max_rules

    # a cell holds offers, (-score, printed, spans, children, rule, bits,
    # packed, lf), until it is settled, then the derivations of the offers
    # that survive its beam; lf is None for a composite until it is built.
    # Offers rank as plain tuples: (printed, spans) is unique in a cell
    cells: dict[tuple[str, int], list] = {}
    seen: set = set()
    scorer = ctx.scorer(weights, max_rules)
    score = scorer.score
    # a composite's own share of its score key: one application of its
    # rule, plus the operator predicate that a superlative introduces
    local = {rule: scorer.key({}, {rule: 1}, 1)
             for rule in ("rjoin", "fjoin", "intersect", "call")}
    for kind in (ARGMAX, ARGMIN):
        local[kind] = scorer.key({(OP, kind): 1}, {kind: 1}, 1)

    def leaf(category: str, lf: LogicalForm, spans: tuple, rule: str) -> None:
        key = (category, lf.printed, spans)
        if key in seen:
            return
        seen.add(key)
        bits, packed = scorer.key(lf.preds, {rule: 1}, 1)
        cells.setdefault((category, 1), []).append(
            (-score(False, bits, packed), lf.printed, spans, (), rule, bits, packed, lf))

    def offer(cell: list, printed: str, spans: tuple, children: tuple, rule: str) -> None:
        """Offer a composite entity set (roots are offered inline below)."""
        key = (CAT_SET, printed, spans)
        if key in seen:
            return
        seen.add(key)
        bits, packed = local[rule]
        for c in children:
            bits |= c.bits
            packed += c.packed
        cell.append((-score(False, bits, packed), printed, spans, children, rule, bits, packed,
                     None))

    def settle(category: str, size_used: int) -> None:
        cell = cells.get((category, size_used))
        if cell is None:
            return
        if beam is not None and len(cell) > beam:
            # the first `beam` offers in rank order, as sorting the whole
            # cell would pick them: every offer scored above the beam-th
            # best score, then the ties with it by (printed, spans)
            cut = sorted([o[0] for o in cell])[beam - 1]
            kept = [o for o in cell if o[0] < cut]
            ties = sorted(o for o in cell if o[0] == cut)
            kept += ties[:beam - len(kept)]
            kept.sort()
            cell = kept
        elif category == CAT_ROOT:
            cell.sort()
        cells[category, size_used] = [_build(o, category, size_used, ctx) for o in cell]

    # ---- size 1: anchored and floating leaves -----------------------------

    toks = list(tokens)
    has_index = "index" in domain.relations
    for i, tok in enumerate(toks):
        n = int(tok) if tok.isdigit() else NUMBER_WORDS.get(tok)
        span = ((i, i + 1),)
        if n is not None:
            leaf(CAT_VALUE, ValueLit(IntVal(n)), span, "anchor-int")
        k = ORDINAL_WORDS.get(tok)
        if k is not None:
            value = ValueLit(IntVal(k))
            leaf(CAT_VALUE, value, span, "anchor-int")
            if has_index:
                # prints like the rjoin that builds the same form at size 3
                leaf(CAT_SET, ReverseJoin("index", value), span, "anchor-ordinal")

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
        leaf(CAT_REL, RelationRef(rel), (), "float-relation")
    for etype in sorted(domain.entity_types):
        leaf(CAT_SET, TypeSet(etype), (), "float-type")
    for method in domain.methods:
        leaf(CAT_METHOD, MethodRef(method), (), "float-method")
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

    for k in range(2, max_rules - 1):
        sets = cells.setdefault((CAT_SET, k), [])
        child_size = k - 2
        if child_size >= 1:
            for rd in rel_derivs:
                rel = rd.lf.name
                spec = rel_specs[rel]
                want = _VALUE_KIND.get(spec.object_kind)
                if want is not None:
                    for c in cells.get((CAT_VALUE, child_size), ()):
                        if isinstance(c.lf.value, want):
                            offer(sets, render_join("R", rel, c.lf.printed), c.spans,
                                  (rd, c), "rjoin")
                elif spec.object_kind == OBJ_ENTITY:
                    for c in cells.get((CAT_SET, child_size), ()):
                        printed = c.lf.printed
                        offer(sets, render_join("R", rel, printed), c.spans, (rd, c), "rjoin")
                        offer(sets, render_join("F", rel, printed), c.spans, (rd, c), "fjoin")
            for rd in int_rels:
                rel = rd.lf.name
                for c in cells.get((CAT_SET, child_size), ()):
                    # directly nested superlatives only breed permutation
                    # twins that no feature can tell apart
                    if isinstance(c.lf, Superlative):
                        continue
                    for kind in (ARGMAX, ARGMIN):
                        offer(sets, render_superlative(kind, c.lf.printed, rel),
                              c.spans, (c, rd), kind)

        for i in range(1, (k - 1) // 2 + 1):
            j = k - 1 - i
            if j < i:
                continue
            left = cells.get((CAT_SET, i), ())
            right = cells.get((CAT_SET, j), ())
            for x, a in enumerate(left):
                ap = a.lf.printed
                # x-with-x adds nothing; at i == j each pair is met once
                for b in (right[x:] if i == j else right):
                    bp = b.lf.printed
                    if ap == bp:
                        continue
                    spans = merge_spans(a.spans, b.spans)
                    if spans is not None:
                        offer(sets, render_intersect(ap, bp), spans, (a, b), "intersect")
        settle(CAT_SET, k)

    # a call is a method, one application and at least one argument. Its
    # offers are made inline: the method's (and a two-argument call's
    # first argument's) share of the score key and printed form is taken
    # once, outside the loop over the last argument, so that each offer
    # costs one string, one dedup key and one scorer lookup
    call_bits, call_packed = local["call"]
    root_scores = scorer.memo[True]
    for k in range(3, max_rules + 1):
        roots = cells.setdefault((CAT_ROOT, k), [])
        budget = k - 2
        for md in cells.get((CAT_METHOD, 1), ()):
            params = md.lf.method.params
            head = md.lf.printed + "("  # a method prints as its name
            mbits = call_bits | md.bits
            mpacked = call_packed + md.packed
            if len(params) == 1:
                for a in arg_pool(params[0], budget):
                    printed = f"{head}{a.lf.printed})"
                    spans = a.spans
                    key = (CAT_ROOT, printed, spans)
                    if key in seen:
                        continue
                    seen.add(key)
                    bits = mbits | a.bits
                    packed = mpacked + a.packed
                    total = root_scores.get((bits, packed))
                    if total is None:
                        total = score(True, bits, packed)
                    roots.append((-total, printed, spans, (md, a), "call", bits, packed, None))
            elif len(params) == 2:
                p0, p1 = params
                for i in range(1, budget):
                    pool0 = arg_pool(p0, i)
                    pool1 = arg_pool(p1, budget - i) if pool0 else ()
                    if not pool1:
                        continue
                    for a in pool0:
                        first = f"{head}{a.lf.printed}, "
                        a_spans = a.spans
                        abits = mbits | a.bits
                        apacked = mpacked + a.packed
                        for b in pool1:
                            spans = merge_spans(a_spans, b.spans)
                            if spans is None:
                                continue
                            printed = f"{first}{b.lf.printed})"
                            key = (CAT_ROOT, printed, spans)
                            if key in seen:
                                continue
                            seen.add(key)
                            bits = abits | b.bits
                            packed = apacked + b.packed
                            total = root_scores.get((bits, packed))
                            if total is None:
                                total = score(True, bits, packed)
                            roots.append((-total, printed, spans, (md, a, b), "call", bits,
                                          packed, None))
        settle(CAT_ROOT, k)

    out: list[Derivation] = []
    for k in range(1, max_rules + 1):
        out.extend(cells.get((CAT_ROOT, k), ()))
    return out


_MISSING = object()


def _denotation(d: Derivation, state: State, domain: Domain, verdicts: dict) -> State | None:
    """Resulting state of a root derivation, or None when its call is
    rejected (an argument that does not fit its parameter, a domain
    exception, or no state change).

    The filter judges arguments, not roots: ``verdicts`` holds, per parse,
    the verdict on each (argument derivation, method, parameter position)
    met so far, which is the argument's set when it conforms to that
    parameter (``domains.base._conforms``, the rule ``MethodCall``
    checks) and None when it does not. Roots share their argument
    derivations, so each is evaluated and judged once per parse. A root
    with a failing argument is dropped without building a call; one whose
    arguments all pass gets its ``MethodCall`` without a second check.
    Sets are read through the state's denotation memo.

    Each call's outcome is kept in the state's call-outcome memo under
    (application logic, call). A kept result is stored as its changes to
    the state and a weak reference to it: between parses the memo holds
    only the few changed triples, and a call met again while its result
    is alive (later in the same parse) gets that same object."""
    method = d.lf.method
    params = method.params
    children = d.children  # (method, argument, ...)
    args = []
    for i in range(len(params)):
        arg = children[i + 1]
        key = (arg, method.name, i)
        verdict = verdicts.get(key, _MISSING)
        if verdict is _MISSING:
            value = evaluate(arg.lf, state, state.denotations)
            verdict = verdicts[key] = None if _conforms(params[i], value) else value
        if verdict is None:
            return None
        args.append(verdict)
    call = MethodCall.conforming(method, tuple(args))
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
        outcomes[key] = [state.changes_to(result), weakref.ref(result)]
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
    :func:`_denotation`); argument sets and invocation outcomes are
    memoized per state, so a state parsed again (another epoch, fold or
    grid point) reuses them. Candidates keep the chart's order; an empty
    list is a parse failure."""
    cands = generate_candidates(tokens, state, domain, config, weights, featurizer)
    verdicts: dict = {}
    out = []
    for d in cands:
        denot = _denotation(d, state, domain, verdicts)
        if denot is None and use_filter:
            continue
        out.append(Candidate(d, denot))
    return out


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
        self._tokens: dict[str, list[str]] = {}

    def featurizer(self, domain: Domain) -> Featurizer:
        f = self._featurizers.get(domain.id)
        if f is None:
            f = Featurizer(domain, self.use_new_features)
            self._featurizers[domain.id] = f
        return f

    def tokens_of(self, utterance: str) -> list[str]:
        t = self._tokens.get(utterance)
        if t is None:
            if len(self._tokens) > 4096:
                self._tokens.clear()
            t = tokenize(utterance)
            self._tokens[utterance] = t
        return t

    def analyze(self, example, weights: dict) -> list[Candidate]:
        """:func:`infer` on one example under this pipeline's settings.

        Denotations are computed for all kept candidates because both the
        training objective and scoring need them. Empty result = parse
        failure."""
        domain = self.domain_source(example.domain_id)
        return infer(self.tokens_of(example.utterance), example.initial, domain,
                     self.config, weights, self.featurizer(domain), self.use_filter)
