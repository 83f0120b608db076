"""The parser's compiled scorer against the reference scoring.

The chart scores every derivation with the function that
``UtteranceContext.scorer`` compiles from the weights, and builds feature
dicts only on demand. The reference is ``kernels.dot`` over
``UtteranceContext.features``; every score must equal it bit for bit,
because fractional credit and the beams compare scores with ``==``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from nlinstruct import kernels
from nlinstruct.domains import get_domain
from nlinstruct.features import Featurizer, UtteranceContext, tokenize
from nlinstruct.logic import TypeSet
from nlinstruct.parser import Derivation, ParserConfig, Pipeline, generate_candidates
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad

CONFIG = ParserConfig(beam_size=20, max_rules=9)

# Weights on every template family, with values whose sums round
# differently depending on the summation order, plus explicit zeros.
EXPLICIT = {
    "unevoked|method": -0.7,
    "unevoked|relation": 0.1,
    "unevoked|operator": 1e16,
    "size>2": 0.3,
    "size>3": -1e16,
    "size>4": 1 / 3,
    "size>5": 0.0,
    "size>6": -0.0,
    "size>7": 2.5e-8,
    "missing-any|method": -1.1,
    "missing-any|relation": 0.7,
    "missing-any|operator": -0.0,
    "cooc-any|method|desc": 2.2,
    "cooc-any|method|name": 0.0,
    "cooc-any|relation|desc": 1e-3,
    "cooc-any|relation|name": -0.45,
    "cooc-any|operator|desc": 3.3,
    "rule|intersect": -0.2,
    "rule|call": 0.9,
    "rule|rjoin": 1e15,
    "rule|fjoin": -3.3,
    "rule|float-type": 0.1,
    "rule|float-relation": 0.2,
    "rule|anchor-int": -0.0,
    "rule|anchor-text": 0.6,
    "rule|argmax": 1 / 7,
}


def _examples(per_domain: int, seed: int):
    return [ex for did in CORPUS_DOMAINS
            for ex, _ in build_domain_corpus(get_domain(did), per_domain, seed=seed)]


@pytest.fixture(scope="module")
def trained() -> dict:
    pipeline = Pipeline(get_domain, CONFIG)
    weights = adagrad(_examples(1, seed=3), {}, TrainConfig(iterations=1, seed=7), pipeline)
    assert len(weights) > 20
    return weights


def _weight_vectors(trained: dict) -> dict[str, dict]:
    vectors = {"empty": {}, "trained": trained}
    for label, factor in (("x1e9", 1e9), ("x1e-9", 1e-9), ("x-3.7", -3.7)):
        vectors[label] = {k: w * factor for k, w in trained.items()}
    explicit = dict(EXPLICIT)
    for k, w in trained.items():  # lexicalized keys, sign flipped
        if k.startswith(("cooc|", "missing|")):
            explicit[k] = -w
    vectors["explicit"] = explicit
    return vectors


@pytest.fixture
def built(monkeypatch) -> list:
    """Every derivation constructed while the fixture is active, pruned
    ones included."""
    out = []
    original = Derivation.__init__

    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        out.append(self)

    monkeypatch.setattr(Derivation, "__init__", record)
    return out


def _busy_examples():
    """One example per domain whose utterance joins two instructions, so
    that several predicates of one kind are evoked at once and their
    cooc-any and missing-any values exceed 1."""
    examples = _examples(2, seed=19)
    return [dataclasses.replace(a, utterance=f"{a.utterance} then {b.utterance}")
            for a, b in zip(examples[::2], examples[1::2])]


@pytest.mark.parametrize("use_new_features", [True, False])
def test_every_chart_score_equals_the_reference_dot(trained, built, use_new_features):
    examples = _busy_examples()
    assert [ex.domain_id for ex in examples] == list(CORPUS_DOMAINS)
    checked = 0
    for label, weights in _weight_vectors(trained).items():
        for ex in examples:
            domain = get_domain(ex.domain_id)
            featurizer = Featurizer(domain, use_new_features)
            tokens = tokenize(ex.utterance)
            ctx = featurizer.context(tokens)
            built.clear()
            roots = generate_candidates(tokens, ex.initial, domain, CONFIG, weights, featurizer)
            assert len(built) > len(roots)  # pruned derivations are checked too
            for d in built:
                want = kernels.dot(weights, ctx.features(d, d.category == "Root"))
                assert d.score == want and repr(d.score) == repr(want), (label, ex.id, d)
            checked += len(built)
    assert checked > 10_000


def test_scorer_memo_never_mixes_roots_and_fragments():
    # the same predicate and rule counts score differently at the root,
    # where missing-predicate features fire
    domain = get_domain("file")
    ctx = Featurizer(domain).context(tuple(tokenize("delete the largest file")))
    weights = {"missing|delete|removeFiles": 1.5, "missing-any|method": 0.25}
    score = ctx.scorer(weights)
    frag = Derivation(TypeSet("File"), "EntitySet", 1, (), (),
                      {"float-type": 1})
    assert score(frag, False) == 0.0
    assert score(frag, True) == kernels.dot(weights, ctx.features(frag, True)) == 1.75


def test_analyze_builds_features_only_for_returned_candidates(built, monkeypatch):
    calls: Counter = Counter()
    original = UtteranceContext.features

    def counting(self, deriv, is_root):
        calls[id(deriv)] += 1
        return original(self, deriv, is_root)

    monkeypatch.setattr(UtteranceContext, "features", counting)
    pipeline = Pipeline(get_domain, ParserConfig(beam_size=10, max_rules=9))
    for ex in _examples(1, seed=19):
        calls.clear()
        built.clear()
        cands = pipeline.analyze(ex, {"cooc-any|method|desc": 1.0, "size>3": -0.5})
        assert len(built) > len(cands)  # pruned and filtered derivations exist
        returned = {id(c.deriv) for c in cands}
        assert set(calls) <= returned
        for c in cands:  # reading again reuses the cached dict
            assert c.features is c.deriv.feats
        assert all(n == 1 for n in calls.values())


def test_derivation_without_context_has_no_features():
    d = Derivation(TypeSet("File"), "Root", 1, (), (), {})
    assert d.feats is None


def test_scores_do_not_depend_on_dict_insertion_order(trained):
    ex = _examples(1, seed=19)[3]
    domain = get_domain(ex.domain_id)
    reordered = dict(reversed(list(trained.items())))
    a = generate_candidates(tokenize(ex.utterance), ex.initial, domain, CONFIG, trained)
    b = generate_candidates(tokenize(ex.utterance), ex.initial, domain, CONFIG, reordered)
    assert [(d.lf.printed, repr(d.score)) for d in a] == [(d.lf.printed, repr(d.score)) for d in b]
