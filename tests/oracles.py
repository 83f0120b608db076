"""Independent brute-force references used only by tests.

Deliberately slow and index-free: denotations come from exhaustive triple
scans, and the candidate space comes from plain recursive enumeration with
no beams and no scoring. The one beam-search reference,
``eager_generate_candidates``, is the chart that builds every candidate
before pruning. ``reference_features`` spells every feature template out
as a string for each derivation, with no per-utterance tables and no
score key: ``reference_preds`` and ``reference_rules`` walk the form and
the derivation tree for the counts it reads.
``reference_tune`` and ``reference_cv_tune`` are grid search as it was
before tuning shared training prefixes: a fresh AdaGrad or two-step run
for every (fold, configuration). These stay out of the
installed package so they can never become fallbacks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from nlinstruct import training
from nlinstruct.domains.base import Domain, MethodCall, invoke
from nlinstruct.domains.base import COLLECTION, ENUM_ARG, INT_ARG, OBJ_ENTITY, OBJ_INT, OBJ_SYM, OBJ_TEXT, SINGLE
from nlinstruct.errors import ExecutionError
from nlinstruct.features import ChartScorer, Featurizer, tokenize
from nlinstruct.kb import TYPE_RELATION, Entity, IntVal, State, SymVal, TextVal
from nlinstruct.logic import (
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
)
from nlinstruct.parser import (
    CAT_METHOD,
    CAT_REL,
    CAT_ROOT,
    CAT_SET,
    CAT_VALUE,
    NUMBER_WORDS,
    ORDINAL_WORDS,
    Derivation,
    ParserConfig,
    merge_spans,
)


def _object_matches(obj, wanted) -> bool:
    if isinstance(obj, TextVal) and isinstance(wanted, TextVal):
        return obj.value.casefold() == wanted.value.casefold()
    return obj == wanted


def brute_force_denotation(lf, state, domain=None):
    """Set semantics by scanning every triple; states for root calls."""
    if isinstance(lf, Call):
        args = tuple(brute_force_denotation(a, state) for a in lf.args)
        call = MethodCall(lf.method, args)
        if domain is None:
            raise ExecutionError("root call needs a domain")
        return invoke(domain, state, call)
    if isinstance(lf, ValueLit):
        return frozenset((lf.value,))
    if isinstance(lf, TypeSet):
        found = set()
        for t in state.triples:
            if t.relation == "type" and t.object == SymVal(lf.etype):
                found.add(t.subject)
        return frozenset(found)
    if isinstance(lf, ReverseJoin):
        wanted = brute_force_denotation(lf.child, state)
        found = set()
        for t in state.triples:
            if t.relation == lf.relation and any(_object_matches(t.object, w) for w in wanted):
                found.add(t.subject)
        return frozenset(found)
    if isinstance(lf, ForwardJoin):
        subjects = brute_force_denotation(lf.child, state)
        found = set()
        for t in state.triples:
            if t.relation == lf.relation and t.subject in subjects:
                found.add(t.object)
        return frozenset(found)
    if isinstance(lf, Intersect):
        return brute_force_denotation(lf.left, state) & brute_force_denotation(lf.right, state)
    if isinstance(lf, Superlative):
        members = brute_force_denotation(lf.set_lf, state)
        scored = []
        for m in members:
            if not isinstance(m, Entity):
                continue
            values = [
                t.object.value
                for t in state.triples
                if t.subject == m and t.relation == lf.key and isinstance(t.object, IntVal)
            ]
            if values:
                scored.append((m, max(values) if lf.kind == "argmax" else min(values)))
        if not scored:
            return frozenset()
        best = max(v for _, v in scored) if lf.kind == "argmax" else min(v for _, v in scored)
        return frozenset(m for m, v in scored if v == best)
    raise ExecutionError(f"cannot evaluate {type(lf).__name__}")


@dataclass
class EnumerationBudget:
    max_size: int = 15
    max_forms: int = 2_000_000


class Truncated(Exception):
    pass


def _spans_clash(a: frozenset, b: frozenset) -> bool:
    for i1, j1 in a:
        for i2, j2 in b:
            if i1 < j2 and i2 < j1:
                return True
    return False


def enumerate_all_forms(domain, state, tokens, budget: EnumerationBudget):
    """Every root form the documented grammar licenses, with no beams.

    Returns (set of printed root forms, truncated flag). Entries are
    tracked as (form, anchored spans) pairs because two derivations of one
    printed form may consume different tokens.
    """
    tokens = list(tokens)
    table: dict[tuple[str, int], dict[tuple[str, frozenset], object]] = {}
    count = 0

    def put(cat, size, lf, spans) -> None:
        nonlocal count
        cell = table.setdefault((cat, size), {})
        key = (lf.printed, spans)
        if key in cell:
            return
        count += 1
        if count > budget.max_forms:
            raise Truncated()
        cell[key] = lf

    def items(cat, size):
        return [(lf, key[1]) for key, lf in table.get((cat, size), {}).items()]

    truncated = False
    try:
        # anchored and floating leaves
        for i, tok in enumerate(tokens):
            span = frozenset(((i, i + 1),))
            try:
                n = int(tok) if tok.isdigit() else NUMBER_WORDS.get(tok)
            except ValueError:  # a digit run too long for int() anchors no integer
                n = None
            if n is not None:
                put("value", 1, ValueLit(IntVal(n)), span)
            k = ORDINAL_WORDS.get(tok)
            if k is not None:
                put("value", 1, ValueLit(IntVal(k)), span)
                if "index" in domain.relations:
                    put("set", 1, ReverseJoin("index", ValueLit(IntVal(k))), span)
        texts = {}
        for t in state.triples:
            if isinstance(t.object, TextVal):
                texts.setdefault(tuple(tokenize(t.object.value)), set()).add(t.object)
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens) + 1):
                for v in texts.get(tuple(tokens[i:j]), ()):
                    put("value", 1, ValueLit(v), frozenset(((i, j),)))
        for etype in domain.entity_types:
            put("set", 1, TypeSet(etype), frozenset())
        for sym in domain.enum_symbols:
            put("value", 1, ValueLit(SymVal(sym)), frozenset())

        value_kind = {OBJ_INT: IntVal, OBJ_TEXT: TextVal, OBJ_SYM: SymVal}
        for size in range(2, budget.max_size + 1):
            child = size - 2
            if child >= 1:
                for rel, spec in domain.relations.items():
                    want = value_kind.get(spec.object_kind)
                    if want is not None:
                        for lf, spans in items("value", child):
                            if isinstance(lf.value, want):
                                put("set", size, ReverseJoin(rel, lf), spans)
                    elif spec.object_kind == OBJ_ENTITY:
                        for lf, spans in items("set", child):
                            put("set", size, ReverseJoin(rel, lf), spans)
                            put("set", size, ForwardJoin(rel, lf), spans)
                    if spec.object_kind == OBJ_INT:
                        for lf, spans in items("set", child):
                            if isinstance(lf, Superlative):
                                continue
                            put("set", size, Superlative("argmax", lf, rel), spans)
                            put("set", size, Superlative("argmin", lf, rel), spans)
            for i in range(1, size - 1):
                j = size - 1 - i
                if j < i:
                    break
                for a, sa in items("set", i):
                    for b, sb in items("set", j):
                        if a.printed != b.printed and not _spans_clash(sa, sb):
                            put("set", size, Intersect(a, b), sa | sb)
            for method in domain.methods:
                params = method.params
                budget_args = size - 2

                def pool(param, sz):
                    if param.kind in (COLLECTION, SINGLE):
                        return items("set", sz)
                    chosen = []
                    for lf, spans in items("value", sz):
                        if param.kind == INT_ARG and isinstance(lf.value, IntVal):
                            chosen.append((lf, spans))
                        elif (
                            param.kind == ENUM_ARG
                            and isinstance(lf.value, SymVal)
                            and lf.value.name in param.symbols
                        ):
                            chosen.append((lf, spans))
                    return chosen

                if len(params) == 1:
                    for lf, spans in pool(params[0], budget_args):
                        put("root", size, Call(method, (lf,)), spans)
                elif len(params) == 2:
                    for i in range(1, budget_args):
                        for a, sa in pool(params[0], i):
                            for b, sb in pool(params[1], budget_args - i):
                                if not _spans_clash(sa, sb):
                                    put("root", size, Call(method, (a, b)), sa | sb)
    except Truncated:
        truncated = True
    roots: set[str] = set()
    for (cat, _size), cell in table.items():
        if cat == "root":
            for printed, _spans in cell:
                roots.add(printed)
    return roots, truncated


def reference_preds(lf: LogicalForm) -> Counter:
    """(kind, name) -> uses of each predicate in a form, by a walk over
    its tree."""
    out: Counter = Counter()

    def walk(node):
        if isinstance(node, TypeSet):
            out["relation", TYPE_RELATION] += 1
        elif isinstance(node, RelationRef):
            out["relation", node.name] += 1
        elif isinstance(node, MethodRef):
            out["method", node.method.name] += 1
        elif isinstance(node, (ReverseJoin, ForwardJoin)):
            out["relation", node.relation] += 1
            walk(node.child)
        elif isinstance(node, Intersect):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Superlative):
            out["operator", node.kind] += 1
            out["relation", node.key] += 1
            walk(node.set_lf)
        elif isinstance(node, Call):
            out["method", node.method.name] += 1
            for a in node.args:
                walk(a)
        else:
            assert isinstance(node, ValueLit), node

    walk(lf)
    return out


def reference_rules(deriv) -> Counter:
    """Rule name -> applications in a derivation, by a walk over its
    children."""
    out = Counter({deriv.rule: 1})
    for c in deriv.children:
        out.update(reference_rules(c))
    return out


def reference_features(tokens, lexicon: dict, use_new_features: bool, lf: LogicalForm,
                       rules: dict, size_used: int, is_root: bool) -> dict[str, float]:
    """The feature dict of a derivation with this form, rule counts and
    size, each template written out as a string (see
    ``nlinstruct.features``): the reference for
    ``UtteranceContext.features``, whose dicts must equal these."""
    tokens = tuple(tokens)
    ngrams: Counter[str] = Counter(tokens)
    for i in range(len(tokens) - 1):
        ngrams[tokens[i] + " " + tokens[i + 1]] += 1
    # (kind, name) -> phrase -> (count, matches_name, in_lexicon)
    triggers: dict[tuple[str, str], dict[str, tuple[int, bool, bool]]] = {}
    for (kind, name), phrases in lexicon.items():
        hits: dict[str, tuple[int, bool, bool]] = {}
        lowered = name.lower()
        for p in phrases | {lowered}:
            c = ngrams.get(p, 0)
            if c:
                hits[p] = (c, p == lowered, p in phrases)
        if hits:
            triggers[(kind, name)] = hits
    feats: dict[str, float] = {}
    preds = reference_preds(lf)
    for key, uses in preds.items():
        entry = triggers.get(key)
        kind, name = key
        if not entry:
            if use_new_features:
                k = f"unevoked|{kind}"
                feats[k] = feats.get(k, 0.0) + uses
            continue
        for phrase, (count, is_name, in_lex) in entry.items():
            k = f"cooc|{phrase}|{name}"
            feats[k] = feats.get(k, 0.0) + count
            if in_lex:
                k = f"cooc-any|{kind}|desc"
                feats[k] = feats.get(k, 0.0) + count
            if is_name:
                k = f"cooc-any|{kind}|name"
                feats[k] = feats.get(k, 0.0) + count
    if is_root:
        for key, entry in triggers.items():
            if key in preds:
                continue
            kind, name = key
            hit = False
            for phrase, (_, _, in_lex) in entry.items():
                if in_lex:
                    feats[f"missing|{phrase}|{name}"] = 1.0
                    hit = True
            if hit:
                feats[f"missing-any|{kind}"] = 1.0
    if use_new_features:
        for n in range(2, size_used):
            feats[f"size>{n}"] = 1.0
    for rule, count in rules.items():
        feats[f"rule|{rule}"] = float(count)
    return feats


def eager_generate_candidates(
    tokens,
    state: State,
    domain: Domain,
    config: ParserConfig | None = None,
    weights: dict | None = None,
    featurizer: Featurizer | None = None,
) -> list[Derivation]:
    """The eager chart, the reference for ``generate_candidates``: it
    builds a logical form and a ``Derivation`` for every candidate, pruned
    ones included, and settles every cell by sorting it whole in rank
    order, (-score, printed form, spans), and cutting it to the beam.
    The score-first chart must return the same roots, in the same order,
    with the same scores, spans and rules. A leaf's score key comes from
    :func:`reference_preds`.
    """
    config = config or ParserConfig()
    weights = weights if weights is not None else {}
    featurizer = featurizer or Featurizer(domain)
    ctx = featurizer.context(tuple(tokens))
    beam = config.beam_size
    max_rules = config.max_rules

    cells: dict[tuple[str, int], list[Derivation]] = {}
    seen: set = set()
    scorer = ChartScorer(ctx, weights, max_rules)
    score = scorer.score
    # a composite's own share of its score key: one application of its
    # rule, plus the operator predicate that a superlative introduces
    local = {rule: ctx.key({}, {rule: 1}, 1) for rule in ("rjoin", "fjoin", "intersect", "call")}
    for kind in (ARGMAX, ARGMIN):
        local[kind] = ctx.key({("operator", kind): 1}, {kind: 1}, 1)

    def add(category: str, lf: LogicalForm, size_used: int, spans: tuple,
            children: tuple, rule: str) -> None:
        key = (category, lf.printed, spans)
        if key in seen:
            return
        seen.add(key)
        if children:
            bits, packed = local[rule]
            for c in children:
                bits |= c.bits
                packed += c.packed
        else:
            bits, packed = ctx.key(reference_preds(lf), {rule: 1}, 1)
        d = Derivation(lf, category, size_used, spans, children, ctx, rule)
        d.bits = bits
        d.packed = packed
        d.score = score(category == CAT_ROOT, bits, packed)
        cells.setdefault((category, size_used), []).append(d)

    def prune(category: str, size_used: int) -> None:
        cell = cells.get((category, size_used))
        if cell is not None:
            cell.sort(key=lambda d: (-d.score, d.lf.printed, d.spans))
            del cell[beam:]

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
            add(CAT_VALUE, ValueLit(IntVal(n)), 1, span, (), "anchor-int")
        k = ORDINAL_WORDS.get(tok)
        if k is not None:
            add(CAT_VALUE, ValueLit(IntVal(k)), 1, span, (), "anchor-int")
            if has_index:
                add(CAT_SET, ReverseJoin("index", ValueLit(IntVal(k))), 1, span, (), "anchor-ordinal")

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
                    add(CAT_VALUE, ValueLit(v), 1, ((i, j),), (), "anchor-text")

    for rel in sorted(domain.relations):
        add(CAT_REL, RelationRef(rel), 1, (), (), "float-relation")
    for etype in sorted(domain.entity_types):
        add(CAT_SET, TypeSet(etype), 1, (), (), "float-type")
    for method in domain.methods:
        add(CAT_METHOD, MethodRef(method), 1, (), (), "float-method")
    for sym in sorted(domain.enum_symbols):
        add(CAT_VALUE, ValueLit(SymVal(sym)), 1, (), (), "float-sym")

    for cat in (CAT_VALUE, CAT_SET, CAT_REL, CAT_METHOD):
        prune(cat, 1)

    # ---- sizes 2..max: composition -----------------------------------------

    rel_specs = domain.relations
    rel_derivs = cells.get((CAT_REL, 1), [])
    int_rels = [d for d in rel_derivs if rel_specs[d.lf.name].object_kind == OBJ_INT]
    _VALUE_KIND = {OBJ_INT: IntVal, OBJ_TEXT: TextVal, OBJ_SYM: SymVal}

    def lit_pool(param, size_used):
        out = []
        for d in cells.get((CAT_VALUE, size_used), ()):
            v = d.lf.value
            if param.kind == INT_ARG and isinstance(v, IntVal):
                out.append(d)
            elif param.kind == ENUM_ARG and isinstance(v, SymVal) and v.name in param.symbols:
                out.append(d)
        return out

    for k in range(2, max_rules + 1):
        child_size = k - 2
        if child_size >= 1:
            for rd in rel_derivs:
                spec = rel_specs[rd.lf.name]
                want = _VALUE_KIND.get(spec.object_kind)
                if want is not None:
                    for c in cells.get((CAT_VALUE, child_size), ()):
                        if isinstance(c.lf.value, want):
                            add(CAT_SET, ReverseJoin(rd.lf.name, c.lf), k,
                                c.spans, (rd, c), "rjoin")
                elif spec.object_kind == OBJ_ENTITY:
                    for c in cells.get((CAT_SET, child_size), ()):
                        add(CAT_SET, ReverseJoin(rd.lf.name, c.lf), k,
                            c.spans, (rd, c), "rjoin")
                        add(CAT_SET, ForwardJoin(rd.lf.name, c.lf), k,
                            c.spans, (rd, c), "fjoin")
            for rd in int_rels:
                for c in cells.get((CAT_SET, child_size), ()):
                    # directly nested superlatives only breed permutation
                    # twins that no feature can tell apart
                    if isinstance(c.lf, Superlative):
                        continue
                    for kind in (ARGMAX, ARGMIN):
                        add(CAT_SET, Superlative(kind, c.lf, rd.lf.name), k,
                            c.spans, (rd, c), kind)

        for i in range(1, (k - 1) // 2 + 1):
            j = k - 1 - i
            if j < i:
                continue
            left = cells.get((CAT_SET, i), ())
            right = cells.get((CAT_SET, j), ())
            if i == j:
                for x in range(len(left)):
                    for y in range(x, len(right)):
                        a, b = left[x], right[y]
                        if a.lf.printed == b.lf.printed:
                            continue  # x-with-x adds nothing
                        spans = merge_spans(a.spans, b.spans)
                        if spans is not None:
                            add(CAT_SET, Intersect(a.lf, b.lf), k, spans, (a, b),
                                "intersect")
            else:
                for a in left:
                    for b in right:
                        if a.lf.printed == b.lf.printed:
                            continue
                        spans = merge_spans(a.spans, b.spans)
                        if spans is not None:
                            add(CAT_SET, Intersect(a.lf, b.lf), k, spans, (a, b),
                                "intersect")

        for md in cells.get((CAT_METHOD, 1), ()):
            method = md.lf.method
            params = method.params
            budget = k - 2
            if len(params) == 1:
                param = params[0]
                pool = (cells.get((CAT_SET, budget), ())
                        if param.kind in (COLLECTION, SINGLE) else lit_pool(param, budget))
                for a in pool:
                    add(CAT_ROOT, Call(method, (a.lf,)), k, a.spans, (md, a), "call")
            elif len(params) == 2:
                p0, p1 = params
                for i in range(1, budget):
                    j = budget - i
                    pool0 = (cells.get((CAT_SET, i), ())
                             if p0.kind in (COLLECTION, SINGLE) else lit_pool(p0, i))
                    if not pool0:
                        continue
                    pool1 = (cells.get((CAT_SET, j), ())
                             if p1.kind in (COLLECTION, SINGLE) else lit_pool(p1, j))
                    for a in pool0:
                        for b in pool1:
                            spans = merge_spans(a.spans, b.spans)
                            if spans is not None:
                                add(CAT_ROOT, Call(method, (a.lf, b.lf)), k, spans,
                                    (md, a, b), "call")

        for cat in (CAT_VALUE, CAT_SET, CAT_ROOT):
            prune(cat, k)

    roots: list[Derivation] = []
    for k in range(1, max_rules + 1):
        roots.extend(cells.get((CAT_ROOT, k), ()))
    return roots


# ---------------------------------------------------------------------------
# Grid search with a fresh run for every (fold, configuration)
# ---------------------------------------------------------------------------
# ``training.adagrad`` is read at call time, so a test that counts epochs
# by patching it counts these runs too.


def reference_two_step(partition, examples_by_domain, config, pipeline) -> dict:
    """Two-step training as two fresh AdaGrad runs; the second takes the
    first's squared-gradient sums unless ``reset_accumulators``."""
    d1 = [ex for d in partition.d1 for ex in examples_by_domain[d]]
    d2 = [ex for d in partition.d2 for ex in examples_by_domain[d]]
    sumsq: dict = {}
    theta1 = training.adagrad(d1, {}, config, pipeline, iterations=config.iterations_step1,
                              sumsq=sumsq)
    return training.adagrad(d2, theta1, config, pipeline, iterations=config.iterations,
                            sumsq=None if config.reset_accumulators else sumsq)


def reference_select(grid, folds, fit, accuracy_fn, table=None):
    """The highest mean accuracy over the folds where a configuration is
    valid, fold accuracies added in fold order, the earliest entry winning
    a tie; a single entry wins untrained. ``table``, if given, receives
    every accuracy keyed by (fold, grid index), in the order scored."""
    if len(grid) == 1:
        return grid[0]
    totals = [0.0] * len(grid)
    counts = [0] * len(grid)
    for fold, (data, held) in enumerate(folds):
        for gi, cfg in enumerate(grid):
            weights = fit(cfg, data)
            if weights is not None:
                accuracy = accuracy_fn(weights, held)
                totals[gi] += accuracy
                counts[gi] += 1
                if table is not None:
                    table[fold, gi] = accuracy
    best = None
    for gi in range(len(grid)):
        if counts[gi] and (best is None or totals[gi] / counts[gi] > totals[best] / counts[best]):
            best = gi
    return grid[best]


def reference_skipped(table: dict) -> set:
    """The (fold, grid index) pairs of a full accuracy table that need not
    be scored: an entry's folds from the first one before which its bound,
    (its accuracies so far + 1.0 per fold left) / its fold count, is at most
    the highest mean of the entries before it. Such an entry's mean is at
    most that of an earlier entry, which wins the tie."""
    folds_of: dict = {}
    for fold, gi in sorted(table):
        folds_of.setdefault(gi, []).append(fold)
    skipped = set()
    best = None  # the highest mean of the entries visited
    for gi, folds in sorted(folds_of.items()):
        accuracies = [table[fold, gi] for fold in folds]
        for k in range(len(folds)):
            bound = 0.0
            for accuracy in accuracies[:k] + [1.0] * (len(folds) - k):
                bound += accuracy
            if best is not None and bound / len(folds) <= best:
                skipped.update((fold, gi) for fold in folds[k:])
                break
        mean = 0.0
        for accuracy in accuracies:
            mean += accuracy
        mean /= len(folds)
        if best is None or mean > best:
            best = mean
    return skipped


def reference_tune(training_domains, examples_by_domain, grid, algorithm, pipeline, accuracy_fn,
                   table=None):
    """Leave-one-domain-out search with a fresh run for every (held-out
    domain, configuration); ``table`` as for :func:`reference_select`."""

    def fit(cfg, sources):
        if algorithm != "gmdp":
            pool = [ex for d in sources for ex in examples_by_domain[d]]
            return training.adagrad(pool, {}, cfg, pipeline)
        partition = training.partition_for_fold(cfg, sources)
        return (None if partition is None
                else reference_two_step(partition, examples_by_domain, cfg, pipeline))

    folds = [([d for d in training_domains if d != held], examples_by_domain[held])
             for held in training_domains]
    return reference_select(grid, folds, fit, accuracy_fn, table)


def reference_cv_tune(folds, grid, pipeline, accuracy_fn, table=None):
    """Cross-validation over (training examples, held-out examples) folds
    with a fresh AdaGrad run for every (fold, configuration); ``table`` as
    for :func:`reference_select`."""
    return reference_select(grid, folds, lambda cfg, rest: training.adagrad(rest, {}, cfg, pipeline),
                            accuracy_fn, table)
