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

With ``use_new_features=False`` the extractor reverts to the pre-adaptation
template set: description-phrase and operator entries leave the lexicon
(name-token matching remains) and size features are dropped.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable

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

    def __getitem__(self, predicate: str) -> frozenset[str]:
        out: set[str] = set()
        for (_, name), phrases in self.entries.items():
            if name == predicate:
                out.update(phrases)
        return frozenset(out)

    def __contains__(self, predicate: str) -> bool:
        return any(name == predicate for _, name in self.entries)


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

    def scorer(self, weights: dict) -> Callable[[object, bool], float]:
        """``score(deriv, is_root)``, equal bit for bit to
        ``kernels.dot(weights, self.features(deriv, is_root))`` but without
        building the feature dict.

        Only the weighted keys of the templates above are compiled, since
        ``dot`` skips the others. A derivation's values for those keys are
        integer counts, added up exactly, and ``weight * value`` is then
        summed in sorted key order, the order ``dot`` uses. Scores are
        memoized on (root flag, size, predicate counts, rule counts), so
        ``weights`` must not change while the scorer is in use.
        """
        new = self.use_new_features
        # triggered predicate -> ((weighted cooc key, count), ...)
        cooc: dict[tuple[str, str], tuple[tuple[str, int], ...]] = {}
        # (triggered predicate, weighted keys set to 1 at a root without it)
        missing: list[tuple[tuple[str, str], tuple[str, ...]]] = []
        for key, entry in self.triggers.items():
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
            cooc[key] = tuple((k, c) for k, c in terms if k in weights)
            absent_weighted = tuple(k for k in absent if k in weights)
            if absent_weighted:
                missing.append((key, absent_weighted))
        rule_keys: dict[str, str] = {}
        unevoked_keys: dict[str, str] = {}
        for k in weights:
            if k.startswith("rule|"):
                rule_keys[k[5:]] = k
            elif new and k.startswith("unevoked|"):
                unevoked_keys[k[9:]] = k
        size_keys: dict[int, tuple[str, ...]] = {}
        memo: dict[tuple, float] = {}

        def score(deriv, is_root: bool) -> float:
            preds = deriv.lf.preds
            size_used = deriv.size_used
            rules = deriv.rules
            memo_key = (is_root, size_used, tuple(preds.items()), tuple(rules.items()))
            total = memo.get(memo_key)
            if total is not None:
                return total
            values: dict[str, int] = {}
            for key, uses in preds.items():
                terms = cooc.get(key)
                if terms is None:
                    k = unevoked_keys.get(key[0])
                    if k is not None:
                        values[k] = values.get(k, 0) + uses
                    continue
                for k, count in terms:
                    values[k] = values.get(k, 0) + count
            if is_root:
                for key, absent in missing:
                    if key not in preds:
                        for k in absent:
                            values[k] = 1
            if new:
                sizes = size_keys.get(size_used)
                if sizes is None:
                    sizes = size_keys[size_used] = tuple(
                        k for k in (f"size>{n}" for n in range(2, size_used)) if k in weights
                    )
                for k in sizes:
                    values[k] = 1
            for rule, count in rules.items():
                k = rule_keys.get(rule)
                if k is not None:
                    values[k] = count
            total = 0.0
            for k in sorted(values):
                total += weights[k] * values[k]
            memo[memo_key] = total
            return total

        return score


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


def extract(tokens, deriv, lexicon: Lexicon, root: bool = True,
            use_new_features: bool = True) -> dict[str, float]:
    """One-shot extraction over a prebuilt lexicon."""
    return UtteranceContext(tuple(tokens), lexicon, use_new_features).features(deriv, root)
