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

A derivation's features are described once, by its two-int *score key*.
Of a derivation, the templates read only five things:

- which triggered predicates (those some phrase of the utterance can
  evoke) its form uses: ``cooc``/``cooc-any`` add each distinct
  predicate's terms once, ``missing``/``missing-any`` fire at a root for
  each one it lacks;
- how many uses of untriggered predicates it has, per kind
  (``unevoked|kind``);
- its count of each grammar rule (``rule|name``);
- its size (``size>n``);
- whether it is a root.

The key holds the first four: ``bits`` has one bit per triggered
predicate of the utterance, and ``packed`` holds, in fields of
:data:`WIDTH` bits from the lowest, the count of each rule in
:data:`RULES`, the untriggered uses of each kind in :data:`KINDS`, and
the size. The layout is fixed: neither the weights nor the utterance
change it. Each field is at most the size: every rule application adds at
most one predicate use (an ``argmax``/``argmin`` adds its operator, a
leaf its one predicate), so the uses of a kind and each rule's count are
bounded by it. The size is at most :data:`MAX_RULES_LIMIT`, which
``WIDTH`` bits hold, so no field overflows into the next.

Keys compose: a form's predicate multiset is the union of its children's
plus its rule's own, and its rule counts and size are its children's plus
one application. So a composite's key is its rule's local key (the
:meth:`UtteranceContext.key` of the rule's own predicates, ``{rule: 1}``
and size 1; :attr:`UtteranceContext.local` holds them for the life of the
context) with the children's ``bits`` OR-ed in and their ``packed``
added. The parser's chart composes keys this way and never collects a
form's predicates or a derivation's rule counts.

A key is read two ways, both in sorted feature-key order:

- :meth:`UtteranceContext.add_features` is the one decoder. It adds
  ``scale`` times each feature of a key to an accumulator, first the
  head terms (:meth:`UtteranceContext.head`, cached per ``bits`` for the
  life of the context), then the packed fields' terms
  (:func:`packed_terms`, cached per ``packed`` for the life of the
  process, as the layout is fixed), so it adds each key exactly as
  ``kernels.add_scaled`` does over the decoded dict. The gradient calls
  it on the candidates' keys and builds no dict;
  :meth:`UtteranceContext.features` is the same accumulation into an
  empty dict at scale 1.0, for ``parse --explain`` and the tests.
- :class:`ChartScorer` turns a key into the same float, bit for bit, as
  ``kernels.dot`` over that dict, without building it, from the same two
  cached term lists. The trainer reads that float as the candidate's
  score.
"""

from __future__ import annotations

import re
from collections import Counter

from .domains.base import Domain

KIND_RELATION = "relation"
KIND_METHOD = "method"
KIND_OPERATOR = "operator"

#: Predicate kinds, in their order among the fields of a score key.
KINDS = (KIND_RELATION, KIND_METHOD, KIND_OPERATOR)

#: Grammar rules, in their order among the fields of a score key.
RULES = ("anchor-int", "anchor-ordinal", "anchor-text", "float-method", "float-relation",
         "float-sym", "float-type", "rjoin", "fjoin", "intersect", "argmax", "argmin", "call")

#: The largest rule budget a parser accepts, twice the paper's 15. Chart
#: time and memory grow faster than linearly in the budget: ``nlinstruct
#: parse`` on a small lighting state at beam 200 peaks at about 32 MB of
#: RSS at 15 rules and 196 MB at 30. The fields of a score key are sized
#: to hold it.
MAX_RULES_LIMIT = 30

# the layout of a score key's packed int: a field per rule, then one per
# predicate kind, then the size above them all
WIDTH = MAX_RULES_LIMIT.bit_length()
MASK = (1 << WIDTH) - 1
RULE_SHIFT = {rule: i * WIDTH for i, rule in enumerate(RULES)}
KIND_SHIFT = {kind: (len(RULES) + i) * WIDTH for i, kind in enumerate(KINDS)}
SIZE_SHIFT = (len(RULES) + len(KINDS)) * WIDTH

# prefixes of the templates that the packed fields give
RULE, UNEVOKED, SIZE = "rule|", "unevoked|", "size>"

# per packed field, in sorted key order, its shift and the (feature key,
# value) pair of each count; per size, its size>n pairs in sorted key
# order. The terms that packed_terms() gives are these shared pairs
_RULE_PAIRS = tuple((shift, tuple((k, float(c)) for c in range(MASK + 1)))
                    for k, shift in sorted((RULE + r, shift) for r, shift in RULE_SHIFT.items()))
_UNEVOKED_PAIRS = tuple((shift, tuple((k, float(c)) for c in range(MASK + 1)))
                        for k, shift in sorted((UNEVOKED + kind, shift)
                                               for kind, shift in KIND_SHIFT.items()))
_SIZE_PAIRS = tuple(tuple((k, 1.0) for k in sorted(f"{SIZE}{n}" for n in range(2, size)))
                    for size in range(MAX_RULES_LIMIT + 1))

# packed -> packed_terms(), without and with the new templates
_PACKED_TERMS: tuple[dict, dict] = ({}, {})


def packed_terms(use_new_features: bool, packed: int) -> tuple[tuple[str, float], ...]:
    """The ``(key, value)`` terms that a score key's packed fields give,
    zero counts left out, in sorted key order: the ``rule|`` counts, then
    the ``size>n`` indicators, then the ``unevoked|`` counts (the last two
    only with the new templates). A function of the fixed layout alone, so
    kept for the life of the process: even a pass over the paper-setting
    parses meets only a few thousand distinct values, and the memo is
    cleared past 16,384 of them."""
    memo = _PACKED_TERMS[use_new_features]
    terms = memo.get(packed)
    if terms is None:
        if len(memo) >= 1 << 14:
            memo.clear()
        out = [pairs[packed >> shift & MASK] for shift, pairs in _RULE_PAIRS
               if packed >> shift & MASK]
        if use_new_features:
            out += _SIZE_PAIRS[packed >> SIZE_SHIFT]
            out += [pairs[packed >> shift & MASK] for shift, pairs in _UNEVOKED_PAIRS
                    if packed >> shift & MASK]
        terms = memo[packed] = tuple(out)
    return terms


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


def build_lexicon(domain: Domain, use_new_features: bool = True) -> dict:
    """Maps each predicate, as (kind, name), to the phrases that can evoke it."""
    lexicon: dict[tuple[str, str], frozenset[str]] = {}
    for m in domain.methods:
        lexicon[(KIND_METHOD, m.name)] = frozenset(m.phrases) if use_new_features else frozenset()
    for r in domain.relations.values():
        phrases = set(name_tokens(r.name))
        if use_new_features:
            phrases.update(r.phrases)
        lexicon[(KIND_RELATION, r.name)] = frozenset(phrases)
    for op, phrases in OPERATOR_PHRASES.items():
        lexicon[(KIND_OPERATOR, op)] = frozenset(phrases) if use_new_features else frozenset()
    return lexicon


class UtteranceContext:
    """Per-utterance feature tables, and the score key that both describes
    a derivation's features and is scored.

    ``triggers`` maps each predicate that some phrase of the utterance can
    evoke to its table: the ``(feature, count)`` terms its use adds (once,
    however many uses a form has), and the keys set to 1 at a root that
    lacks it. ``bit`` gives each of them its bit in a key's ``bits``.

    :meth:`key` encodes a derivation's predicate counts, rule counts and
    size as a score key, and ``local`` maps each composite rule to its own
    share of a key (see the module docstring). :meth:`add_features`
    decodes a key into an accumulator, and :class:`ChartScorer` weighs
    one. Features come in sorted key order: :meth:`head`'s ``cooc`` and
    ``missing`` terms, then the ``rule|``, ``size>`` and ``unevoked|``
    keys of the packed fields, whose prefixes sort after both."""

    def __init__(self, tokens: tuple[str, ...], lexicon: dict, use_new_features: bool):
        self.use_new_features = use_new_features
        ngrams: Counter[str] = Counter(tokens)
        for i in range(len(tokens) - 1):
            ngrams[tokens[i] + " " + tokens[i + 1]] += 1
        self.triggers: dict[tuple[str, str], tuple] = {}
        for (kind, name), phrases in lexicon.items():
            terms: list[tuple[str, int]] = []
            absent: list[str] = []
            lowered = name.lower()
            for p in phrases | {lowered}:
                count = ngrams.get(p, 0)
                if not count:
                    continue
                terms.append((f"cooc|{p}|{name}", count))
                # a phrase can match both ways (a method named like one of
                # its own description phrases); both unlexicalized channels
                # then fire
                for channel, hit in (("desc", p in phrases), ("name", p == lowered)):
                    if hit:
                        terms.append((f"cooc-any|{kind}|{channel}", count))
                if p in phrases:
                    absent.append(f"missing|{p}|{name}")
            if absent:
                absent.append(f"missing-any|{kind}")
            if terms:
                self.triggers[kind, name] = (tuple(terms), tuple(absent))
        self.bit = {key: 1 << i for i, key in enumerate(self.triggers)}
        self._heads: tuple[dict, dict] = ({}, {})  # bits -> head(), of fragments and of roots
        # a composite's own share of its score key: one application of its
        # rule, plus the operator predicate that a superlative introduces
        self.local = {rule: self.key({}, {rule: 1}, 1)
                      for rule in ("rjoin", "fjoin", "intersect", "call")}
        for kind in ("argmax", "argmin"):
            self.local[kind] = self.key({(KIND_OPERATOR, kind): 1}, {kind: 1}, 1)

    def key(self, preds: dict, rules: dict, size_used: int) -> tuple[int, int]:
        """``(bits, packed)`` of a derivation with these predicate counts,
        rule counts and size."""
        bits = 0
        packed = size_used << SIZE_SHIFT
        for pred, uses in preds.items():
            bit = self.bit.get(pred)
            if bit is None:
                packed += uses << KIND_SHIFT[pred[0]]
            else:
                bits |= bit
        for rule, count in rules.items():
            packed += count << RULE_SHIFT[rule]
        return bits, packed

    def head(self, is_root: bool, bits: int) -> tuple[tuple[str, float], ...]:
        """The ``(key, value)`` terms that ``bits`` gives, in sorted key
        order: the ``cooc`` terms of each triggered predicate the form uses
        and, at a root, the ``missing`` keys of each one it lacks. Kept per
        (root flag, ``bits``) for the life of the context."""
        memo = self._heads[is_root]
        terms = memo.get(bits)
        if terms is None:
            values: dict[str, float] = {}
            for i, (cooc, absent) in enumerate(self.triggers.values()):
                if bits >> i & 1:
                    for k, count in cooc:
                        values[k] = values.get(k, 0.0) + count
                elif is_root:
                    for k in absent:
                        values[k] = 1.0
            terms = memo[bits] = tuple(sorted(values.items()))
        return terms

    def add_features(self, acc: dict, is_root: bool, bits: int, packed: int,
                     scale: float) -> None:
        """``acc += scale * features`` of the score key ``(bits,
        packed)``, in place: the terms of :meth:`head`, then those of
        :func:`packed_terms`, each key once and in sorted key order, so the
        same float operations, bit for bit, as ``kernels.add_scaled`` over
        the decoded dict, with no dict decoded and nothing sorted."""
        get = acc.get
        for k, value in self.head(is_root, bits):
            acc[k] = get(k, 0.0) + value * scale
        for k, value in packed_terms(self.use_new_features, packed):
            acc[k] = get(k, 0.0) + value * scale

    def features(self, deriv, is_root: bool) -> dict[str, float]:
        """The feature dict of a derivation, decoded from its score key
        (``bits`` and ``packed``, the only attributes read) by
        :meth:`add_features` into an empty dict at scale 1.0, keys in
        sorted order."""
        feats: dict[str, float] = {}
        self.add_features(feats, is_root, deriv.bits, deriv.packed, 1.0)
        return feats


class ChartScorer:
    """Scores derivations from their score keys, equal bit for bit to
    ``kernels.dot(weights, ctx.features(deriv, is_root))``.

    :meth:`score` is memoized on (root flag, key). A miss sums
    ``weight * value`` over the weighted keys of the decoded dict in sorted
    key order, the order ``dot`` uses, in two parts. The keys of
    ``ctx.head`` (``cooc-any|``, ``cooc|``, ``missing-any|``,
    ``missing|``) all sort before the keys of the packed fields
    (``rule|``, ``size>``, ``unevoked|``), so ``dot``'s running total
    passes through the head's total before the first packed term. That
    partial total is memoized on (root flag, ``bits``); a miss adds to it
    the weighted terms of :func:`packed_terms`, which are in sorted key
    order already: that order is fixed by the key layout, so it is worked
    out once per packed value for the whole process, not per parse or per
    weight vector. ``weights`` must not change while the scorer is in use.
    """

    def __init__(self, ctx: UtteranceContext, weights: dict, max_rules: int):
        assert 1 <= max_rules <= MAX_RULES_LIMIT, max_rules
        self.weights = weights
        self.max_rules = max_rules
        self.use_new_features = ctx.use_new_features
        self._head = ctx.head
        # (bits, packed) -> score, of fragments and of roots: a caller may
        # read a score here and must call score() when it is missing
        self.memo: tuple[dict, dict] = ({}, {})
        self._prefix: tuple[dict, dict] = ({}, {})  # bits -> running total

    def score(self, is_root: bool, bits: int, packed: int) -> float:
        memo = self.memo[is_root]
        total = memo.get((bits, packed))
        if total is None:
            total = memo[bits, packed] = self._total(is_root, bits, packed)
        return total

    def _total(self, is_root: bool, bits: int, packed: int) -> float:
        size = packed >> SIZE_SHIFT
        assert size <= self.max_rules, f"size {size} exceeds max_rules {self.max_rules}"
        get = self.weights.get
        prefix = self._prefix[is_root]
        total = prefix.get(bits)
        if total is None:
            total = 0.0
            for k, value in self._head(is_root, bits):
                weight = get(k)
                if weight is not None:
                    total += weight * value
            prefix[bits] = total
        for k, value in packed_terms(self.use_new_features, packed):
            weight = get(k)
            if weight is not None:
                total += weight * value
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

