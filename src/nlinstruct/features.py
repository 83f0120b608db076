"""Sparse feature extraction for candidate derivations.

Templates, all string-keyed with ``|`` separators:

  cooc|{phrase}|{predicate}     utterance phrase evokes a predicate that the
                                logical form uses (value: occurrence count)
  cooc-any|{kind}|{src}         unlexicalized version, split by predicate kind
                                (method/relation/operator) and by how the
                                phrase matched (description phrase vs name)
  missing|{phrase}|{predicate}  phrase could evoke a predicate that the form
                                does not use (indicator, root forms only)
  missing-any|{kind}            unlexicalized version of the above
  unevoked|{kind}               count of predicate uses with no utterance
                                evidence at all (the mirror of missing)
  size>{n}                      form used more than n rule applications,
                                for every n >= 2 below its size
  rule|{name}                   count of applications per grammar rule
                                (anchor-int, anchor-text, anchor-ordinal,
                                float-*, rjoin, fjoin, intersect,
                                argmax, argmin, call)

Feature names never contain entity ids, domain ids or knowledge-base
values, so weights transfer to domains unseen in training. Phrase matching
is exact lowercase 1-2-grams; there is deliberately no stemming, so e.g.
"longest" only matches through the operator phrase list.

With ``use_new_features=False`` features revert to the pre-adaptation
template set: description-phrase and operator entries leave the lexicon
(name-token matching remains) and size features are dropped.

:meth:`UtteranceContext.features` is the reference. The parser's chart
scores derivations without it, through :class:`ChartScorer`: a
derivation's weighted feature values depend only on a two-int key that
composes from its children's keys, and the scorer turns a key into the
same float, bit for bit, as ``kernels.dot`` over the feature dict.
"""

from __future__ import annotations

import re
from collections import Counter

from .domains.base import Domain

KIND_RELATION = "relation"
KIND_METHOD = "method"
KIND_OPERATOR = "operator"

OPERATOR_PHRASES: dict[str, tuple[str, ...]] = {
    "argmax": ("largest", "longest", "biggest", "most", "last", "highest"),
    "argmin": ("smallest", "shortest", "first", "least", "lowest"),
}

_WORD = re.compile(r"[a-z]+|[0-9]+")
_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def tokenize(utterance: str) -> list[str]:
    """Lowercase, split on whitespace and punctuation, keep digit runs as
    single tokens. Deterministic."""
    return _WORD.findall(utterance.lower())


def name_tokens(name: str) -> tuple[str, ...]:
    """Words inside a camelCase predicate name, short connectives dropped."""
    words = [w.lower() for w in _CAMEL.split(name)]
    return tuple(w for w in words if len(w) >= 3)


class Lexicon:
    """Maps each predicate to the phrases that can evoke it."""

    def __init__(self, entries: dict[tuple[str, str], frozenset[str]]):
        self.entries = entries


def build_lexicon(domain: Domain, use_new_features: bool = True) -> Lexicon:
    entries: dict[tuple[str, str], frozenset[str]] = {}
    for m in domain.methods:
        phrases = frozenset(m.phrases) if use_new_features else frozenset()
        entries[(KIND_METHOD, m.name)] = phrases
    for r in domain.relations.values():
        phrases = set(name_tokens(r.name))
        if use_new_features:
            phrases.update(r.phrases)
        entries[(KIND_RELATION, r.name)] = frozenset(phrases)
    for op, phrases in OPERATOR_PHRASES.items():
        entries[(KIND_OPERATOR, op)] = frozenset(phrases) if use_new_features else frozenset()
    return Lexicon(entries)


class UtteranceContext:
    """Per-utterance matching tables, reused across all candidate forms."""

    def __init__(self, tokens: tuple[str, ...], lexicon: Lexicon, use_new_features: bool):
        self.tokens = tokens
        self.use_new_features = use_new_features
        ngrams: Counter[str] = Counter(tokens)
        for i in range(len(tokens) - 1):
            ngrams[tokens[i] + " " + tokens[i + 1]] += 1
        self.ngrams = ngrams
        # (kind, name) -> phrase -> (count, matches_name, in_lexicon).
        # A phrase can match both ways (a method named like one of its own
        # description phrases); both unlexicalized channels then fire.
        trig: dict[tuple[str, str], dict[str, tuple[int, bool, bool]]] = {}
        for (kind, name), phrases in lexicon.entries.items():
            hits: dict[str, tuple[int, bool, bool]] = {}
            lowered = name.lower()
            for p in phrases | {lowered}:
                c = ngrams.get(p, 0)
                if c:
                    hits[p] = (c, p == lowered, p in phrases)
            if hits:
                trig[(kind, name)] = hits
        self.triggers = trig

    def features(self, deriv, is_root: bool) -> dict[str, float]:
        feats: dict[str, float] = {}
        preds = deriv.lf.preds
        for key, uses in preds.items():
            entry = self.triggers.get(key)
            kind, name = key
            if not entry:
                if self.use_new_features:
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
            for key, entry in self.triggers.items():
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
        if self.use_new_features:
            for n in range(2, deriv.size_used):
                feats[f"size>{n}"] = 1.0
        for rule, count in deriv.rules.items():
            feats[f"rule|{rule}"] = float(count)
        return feats

    def scorer(self, weights: dict, max_rules: int) -> "ChartScorer":
        """The scorer for one parse under ``weights`` whose derivations use
        at most ``max_rules`` rule applications (see :class:`ChartScorer`)."""
        return ChartScorer(self, weights, max_rules)


#: Predicate kinds, in their order among the fields of a score key.
KINDS = (KIND_RELATION, KIND_METHOD, KIND_OPERATOR)


class ChartScorer:
    """Scores derivations from a two-int *score key*, equal bit for bit to
    ``kernels.dot(weights, ctx.features(deriv, is_root))``.

    Of a derivation, the templates read only five things:

    - which triggered predicates (entries of ``ctx.triggers``) its form
      uses: ``cooc``/``cooc-any`` add each distinct predicate's terms once,
      ``missing``/``missing-any`` fire at a root for each one it lacks;
    - how many uses of untriggered predicates it has, per kind
      (``unevoked|kind``);
    - its rule counts (``rule|name``), of which only weighted ones matter;
    - its size (``size>n``);
    - whether it is a root.

    The key holds the first four as two ints: ``bits`` has one bit per
    trigger, and ``packed`` holds, in fields of ``width`` bits from the
    lowest, the count of each weighted rule (sorted by key), the
    untriggered uses of each kind in :data:`KINDS`, and the size. Each
    field is at most the size: every rule application adds at most one
    predicate use (an ``argmax``/``argmin`` adds its operator, a leaf its
    one predicate), so the uses of a kind and each rule's count are
    bounded by it. The size is at most ``max_rules`` and
    ``width = max_rules.bit_length()``, so no field overflows into the
    next.

    Keys compose: a form's predicate multiset is the union of its
    children's plus its rule's own, and its rule counts and size are its
    children's plus one application. So a composite's key is its rule's
    local key (:meth:`key` of the rule's own predicates, ``{rule: 1}`` and
    size 1) with the children's ``bits`` OR-ed in and their ``packed``
    added; the chart never reads a composite's ``preds`` or ``rules``.

    :meth:`score` is memoized on (root flag, key). A miss rebuilds the
    integer feature values of every weighted key exactly as the templates
    would count them and sums ``weight * value`` in sorted key order, the
    order ``dot`` uses, in two parts. The keys that ``bits`` determines
    (``cooc-any|``, ``cooc|``, ``missing-any|``, ``missing|``) all sort
    before the keys that ``packed`` determines (``rule|``, ``size>``,
    ``unevoked|``), so ``dot``'s running total passes through the ``bits``
    part's total before the first ``packed`` term. That partial total is
    memoized on (root flag, ``bits``); a miss adds to it only the
    ``packed`` terms, in sorted key order. The scorer asserts the
    ordering of its weighted keys when it is built, so a template that
    broke it would fail loudly. ``weights`` must not change while the
    scorer is in use.
    """

    def __init__(self, ctx: UtteranceContext, weights: dict, max_rules: int):
        assert max_rules >= 1, max_rules
        self.weights = weights
        self.max_rules = max_rules
        self.width = width = max_rules.bit_length()
        self._mask = (1 << width) - 1
        self._new = ctx.use_new_features
        self._bit = {key: 1 << i for i, key in enumerate(ctx.triggers)}
        self._rule_keys = tuple(sorted(k for k in weights if k.startswith("rule|")))
        self._rule_shift = {k[5:]: i * width for i, k in enumerate(self._rule_keys)}
        base = len(self._rule_keys) * width
        self._kind_shift = {kind: base + i * width for i, kind in enumerate(KINDS)}
        self._size_shift = base + len(KINDS) * width
        # triggered predicate -> ((weighted cooc key, count), ...)
        self._cooc: dict[tuple[str, str], tuple[tuple[str, int], ...]] = {}
        # (bit of a triggered predicate, weighted keys set to 1 at a root without it)
        self._missing: list[tuple[int, tuple[str, ...]]] = []
        for key, entry in ctx.triggers.items():
            kind, name = key
            terms: list[tuple[str, int]] = []
            absent: list[str] = []
            for phrase, (count, is_name, in_lex) in entry.items():
                terms.append((f"cooc|{phrase}|{name}", count))
                if in_lex:
                    terms.append((f"cooc-any|{kind}|desc", count))
                    absent.append(f"missing|{phrase}|{name}")
                if is_name:
                    terms.append((f"cooc-any|{kind}|name", count))
            if absent:
                absent.append(f"missing-any|{kind}")
            self._cooc[key] = tuple((k, c) for k, c in terms if k in weights)
            absent_weighted = tuple(k for k in absent if k in weights)
            if absent_weighted:
                self._missing.append((self._bit[key], absent_weighted))
        # (weighted key, its weight, shift of the field it counts, or None
        # for size>n, n) for every key whose value the packed fields give,
        # in sorted key order
        fields = self._rule_keys + tuple(
            f"unevoked|{kind}" if self._new else None for kind in KINDS)
        tail = [(k, weights[k], i * width, 0) for i, k in enumerate(fields) if k in weights]
        if self._new:
            tail += [(k, weights[k], None, n) for k, n in
                     ((f"size>{n}", n) for n in range(2, max_rules)) if k in weights]
        tail.sort()
        self._tail = tuple(tail)
        # the split sum is exact only if every bits key sorts first
        head = [k for terms in self._cooc.values() for k, _ in terms]
        head += [k for _, absent in self._missing for k in absent]
        assert not head or not tail or max(head) < tail[0][0], (max(head), tail[0][0])
        # (bits, packed) -> score, of fragments and of roots: a caller may
        # read a score here and must call score() when it is missing
        self.memo: tuple[dict, dict] = ({}, {})
        self._prefix: tuple[dict, dict] = ({}, {})  # bits -> running total

    def key(self, preds: dict, rules: dict, size_used: int) -> tuple[int, int]:
        """``(bits, packed)`` of a derivation with these predicate counts,
        rule counts and size."""
        bits = 0
        packed = size_used << self._size_shift
        for pred, uses in preds.items():
            bit = self._bit.get(pred)
            if bit is None:
                packed += uses << self._kind_shift[pred[0]]
            else:
                bits |= bit
        for rule, count in rules.items():
            shift = self._rule_shift.get(rule)
            if shift is not None:
                packed += count << shift
        return bits, packed

    def decode(self, bits: int, packed: int) -> tuple[frozenset, dict, dict, int]:
        """(triggered predicates, untriggered uses per kind, weighted rule
        counts, size) of a key; zero counts are left out."""
        mask, width = self._mask, self.width
        triggered = frozenset(pred for pred, bit in self._bit.items() if bits & bit)
        rules = {}
        for k in self._rule_keys:
            if packed & mask:
                rules[k[5:]] = packed & mask
            packed >>= width
        untriggered = {}
        for kind in KINDS:
            if packed & mask:
                untriggered[kind] = packed & mask
            packed >>= width
        # a field that overflowed would carry up into the size
        assert packed <= self.max_rules, f"size {packed} exceeds max_rules {self.max_rules}"
        return triggered, untriggered, rules, packed

    def score(self, is_root: bool, bits: int, packed: int) -> float:
        memo = self.memo[is_root]
        total = memo.get((bits, packed))
        if total is None:
            total = memo[bits, packed] = self._total(is_root, bits, packed)
        return total

    def _total(self, is_root: bool, bits: int, packed: int) -> float:
        """``dot`` over the weighted feature values of a key: the bits'
        running total, memoized on (root flag, bits), plus the terms of
        the packed fields (see :meth:`decode` for the field walk)."""
        size = packed >> self._size_shift
        assert size <= self.max_rules, f"size {size} exceeds max_rules {self.max_rules}"
        prefix = self._prefix[is_root]
        total = prefix.get(bits)
        if total is None:
            total = prefix[bits] = self._head(is_root, bits)
        mask = self._mask
        for _, weight, shift, n in self._tail:
            if shift is None:
                if n < size:  # value 1, and weight * 1 == weight
                    total += weight
            else:
                value = packed >> shift & mask
                if value:
                    total += weight * value
        return total

    def _head(self, is_root: bool, bits: int) -> float:
        """The running total of ``dot`` over the weighted ``cooc`` and, at
        a root, ``missing`` values that ``bits`` gives, in sorted key
        order."""
        weights = self.weights
        values: dict[str, int] = {}
        for pred, bit in self._bit.items():
            if bits & bit:
                for k, count in self._cooc[pred]:
                    values[k] = values.get(k, 0) + count
        if is_root:
            for bit, absent in self._missing:
                if not bits & bit:
                    for k in absent:
                        values[k] = 1
        total = 0.0
        for k in sorted(values):
            total += weights[k] * values[k]
        return total


class Featurizer:
    """Builds utterance contexts for one domain under one template setting."""

    def __init__(self, domain: Domain, use_new_features: bool = True):
        self.domain = domain
        self.use_new_features = use_new_features
        self.lexicon = build_lexicon(domain, use_new_features)
        self._cache: dict[tuple[str, ...], UtteranceContext] = {}

    def context(self, tokens) -> UtteranceContext:
        key = tuple(tokens)
        ctx = self._cache.get(key)
        if ctx is None:
            if len(self._cache) > 512:
                self._cache.clear()
            ctx = UtteranceContext(key, self.lexicon, self.use_new_features)
            self._cache[key] = ctx
        return ctx

