"""The parser's compiled scorer and score-first chart against references.

The chart scores every candidate from a score key it composes from the
children's keys, with the scorer that ``UtteranceContext.scorer``
compiles from the weights, and builds feature dicts only on demand. The
reference is ``kernels.dot`` over ``UtteranceContext.features``; every
score must equal it bit for bit, because fractional credit and the beams
compare scores with ``==``. Every composed key must also decode to the
counts taken from the derivation's own ``lf.preds`` and ``rules``.

``generate_candidates`` builds a ``Derivation`` only for the candidates
that survive their beams, so the checks that cover pruned candidates run
on ``oracles.eager_generate_candidates``, the chart that builds every
candidate, and a differential test holds the two charts' roots equal.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from nlinstruct import kernels, parser
from nlinstruct.domains import get_domain
from nlinstruct.evaluation import mean_credit
from nlinstruct.features import KINDS, Featurizer, UtteranceContext, tokenize
from nlinstruct.logic import Call, TypeSet, parse_lf
from nlinstruct.parser import Derivation, ParserConfig, Pipeline, generate_candidates
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad, example_log_likelihood
from oracles import eager_generate_candidates

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
    """Every derivation constructed while the fixture is active: pruned
    ones too under the eager reference chart, survivors only under
    ``generate_candidates``."""
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


def _check_chart(built: list, ctx: UtteranceContext, weights: dict, max_rules: int,
                 label) -> None:
    """Every built derivation's score equals the reference, and its
    composed key is the one its own predicate and rule counts give."""
    scorer = ctx.scorer(weights, max_rules)
    for d in built:
        want = kernels.dot(weights, ctx.features(d, d.category == "Root"))
        assert d.score == want and repr(d.score) == repr(want), (label, d)
        preds, rules = d.lf.preds, d.rules
        assert sum(rules.values()) == d.size_used <= max_rules, (label, d)
        assert (d.bits, d.packed) == scorer.key(preds, rules, d.size_used), (label, d)
        untriggered: Counter = Counter()
        for (kind, name), uses in preds.items():
            if (kind, name) not in ctx.triggers:
                untriggered[kind] += uses
        assert scorer.decode(d.bits, d.packed) == (
            frozenset(p for p in preds if p in ctx.triggers),
            dict(untriggered),
            {r: n for r, n in rules.items() if f"rule|{r}" in weights},
            d.size_used,
        ), (label, d)


def _run_chart(built, ex, weights, config, use_new_features=True,
               chart=eager_generate_candidates):
    """Parses ``ex`` with ``chart``, by default the reference chart, so
    that ``built`` holds pruned derivations too."""
    domain = get_domain(ex.domain_id)
    featurizer = Featurizer(domain, use_new_features)
    tokens = tokenize(ex.utterance)
    built.clear()
    roots = chart(tokens, ex.initial, domain, config, weights, featurizer)
    assert len(built) > len(roots)  # non-root derivations are checked too
    return featurizer.context(tokens)


@pytest.mark.parametrize("use_new_features", [True, False])
def test_every_chart_score_equals_the_reference_dot(trained, built, use_new_features):
    examples = _busy_examples()
    assert [ex.domain_id for ex in examples] == list(CORPUS_DOMAINS)
    checked = 0
    for label, weights in _weight_vectors(trained).items():
        for ex in examples:
            ctx = _run_chart(built, ex, weights, CONFIG, use_new_features)
            _check_chart(built, ctx, weights, CONFIG.max_rules, (label, ex.id))
            checked += len(built)
    assert checked > 10_000


def _ordinal_examples():
    """One example per domain with an ``index`` relation, its utterance
    extended with several ordinals, so that ``anchor-ordinal`` leaves (size
    1, three nodes) feed joins, intersections and superlatives."""
    out = []
    for did in ("container", "list", "messenger"):
        assert "index" in get_domain(did).relations
        (ex, _), = build_domain_corpus(get_domain(did), 1, seed=19)
        out.append(dataclasses.replace(
            ex, utterance=f"{ex.utterance} then the first and the third not the second"))
    return out


def test_ordinal_leaves_compose_with_exact_scores(trained, built):
    weights = dict(_weight_vectors(trained)["explicit"], **{"rule|anchor-ordinal": -0.3})
    composed = 0
    for ex in _ordinal_examples():
        ctx = _run_chart(built, ex, weights, CONFIG)
        _check_chart(built, ctx, weights, CONFIG.max_rules, ex.id)
        ordinal = {id(d) for d in built if d.rule == "anchor-ordinal"}
        assert len(ordinal) >= 3
        composed += sum(1 for d in built if any(id(c) in ordinal for c in d.children))
    assert composed > 100


def test_scores_are_exact_at_fifteen_rule_applications(trained, built):
    # every candidate under the reference chart; under the score-first
    # chart, the derivations it builds for its beams' survivors
    config = ParserConfig(beam_size=4, max_rules=15)
    vectors = _weight_vectors(trained)
    examples = _busy_examples()[::3] + _ordinal_examples()[:1]
    for chart in (eager_generate_candidates, generate_candidates):
        for label in ("trained", "explicit"):
            for ex in examples:
                ctx = _run_chart(built, ex, vectors[label], config, chart=chart)
                assert max(d.size_used for d in built) > 9
                _check_chart(built, ctx, vectors[label], config.max_rules, (label, ex.id))


def _check_offer_strings(monkeypatch) -> list:
    """Makes the chart check, for every derivation it builds, that its
    form prints as the string its offer was deduplicated and ranked on
    (an offer's second field), and for every root, whose call takes that
    string as given, that it equals the call built afresh from its method
    and arguments; returns the derivations checked."""
    checked = []
    original = parser._build

    def build(offer, *args):
        d = original(offer, *args)
        assert d.lf.printed == offer[1], (d, offer[1])
        if d.category == parser.CAT_ROOT:
            method, *arguments = d.children
            fresh = Call(method.lf.method, tuple(a.lf for a in arguments))
            assert (d.lf.printed, d.lf.node_count, d.lf.args) == \
                (fresh.printed, fresh.node_count, fresh.args), d
        checked.append(d)
        return d

    monkeypatch.setattr(parser, "_build", build)
    return checked


def _roots(chart, tokens, state, domain, config, weights) -> list[tuple]:
    roots = chart(tokens, state, domain, config, weights, Featurizer(domain))
    return [(d.lf.printed, repr(d.score), d.size_used, d.spans, list(d.rules.items()))
            for d in roots]


@pytest.mark.parametrize("beam, max_rules", [
    *(pytest.param(beam, 9, id=str(beam)) for beam in (1, 2, 4, 20)),
    *(pytest.param(4, m, id=f"4-rules{m}") for m in (1, 2, 3, 4, 5, 15)),
    pytest.param(20, 15, id="20-rules15"),
])
def test_chart_returns_the_eager_reference_roots(trained, monkeypatch, beam, max_rules):
    # empty weights tie every score, so every cell above the beam is
    # pruned on printed forms alone; rule order shows the order in which
    # cells that fit their beam were iterated; under "ordinal-pruned",
    # ordinal leaves lose their size-1 beam at beams below 5 and must
    # still block the size-3 joins that would build them again; the
    # reference builds every set cell, also those no root can read
    config = ParserConfig(beam_size=beam, max_rules=max_rules)
    vectors = _weight_vectors(trained)
    vectors["explicit"] = EXPLICIT
    vectors["ordinal-pruned"] = {"rule|anchor-ordinal": -1.0, "rule|anchor-int": 0.5}
    checked = _check_offer_strings(monkeypatch)
    compared = 0
    for label in ("empty", "trained", "explicit", "x-3.7", "ordinal-pruned"):
        for ex in _busy_examples() + _ordinal_examples():
            args = (tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id), config,
                    vectors[label])
            want = _roots(eager_generate_candidates, *args)
            assert _roots(generate_candidates, *args) == want, (label, ex.id)
            compared += len(want)
    # a call needs three rule applications, a composite set three more;
    # below 9 rules there are fewer root cells, so fewer roots to compare
    rules = {"anchor-ordinal", "float-type"}
    if max_rules >= 3:
        assert compared > 60 * (beam if max_rules >= 9 else min(beam, max_rules - 2))
        rules.add("call")
    else:
        assert compared == 0
    if max_rules >= 5:
        rules |= {"rjoin", "fjoin", "intersect", "argmax", "argmin"}
    assert {d.rule for d in checked} >= rules


@pytest.mark.parametrize("max_rules", [3, 5, 9, 15])
def test_chart_builds_no_set_a_root_cannot_read(monkeypatch, max_rules):
    # a set of size s is read only by forms of size s + 2 or more, so the
    # chart builds sets up to size max_rules - 2 and no larger
    checked = _check_offer_strings(monkeypatch)
    config = ParserConfig(beam_size=4, max_rules=max_rules)
    for ex in _busy_examples():
        generate_candidates(tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id),
                            config, {})
    sizes = {d.size_used for d in checked if d.category == "EntitySet"}
    assert max(sizes) == max_rules - 2, sorted(sizes)
    assert max(d.size_used for d in checked if d.category == "Root") == max_rules


def test_chart_builds_at_most_beam_derivations_per_cell(built):
    # under weights {} every offer ties, so a full cell fills its beam from
    # ties alone; only the offers that survive get a Derivation
    config = ParserConfig(beam_size=4, max_rules=9)
    full = 0
    for ex in _examples(1, seed=19):
        built.clear()
        generate_candidates(tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id),
                            config, {})
        per_cell = Counter((d.category, d.size_used) for d in built)
        assert max(per_cell.values()) <= config.beam_size, (ex.id, per_cell)
        full += sum(n == config.beam_size for n in per_cell.values())
    assert full > 50


def test_unbounded_and_paper_beams_return_the_eager_reference_roots(toy_domain, paper_state):
    state = toy_domain.generate_state(random.Random(2), {"things": (3, 3)})
    args = (["zap", "alpha", "3"], state, toy_domain, ParserConfig(beam_size=None, max_rules=15),
            {"rule|intersect": -0.5})
    want = _roots(eager_generate_candidates, *args)
    assert len(want) > 1000
    assert _roots(generate_candidates, *args) == want
    args = (tokenize("turn off the light in the bedroom on the second floor"), paper_state,
            get_domain("lighting"), ParserConfig(beam_size=200, max_rules=15), EXPLICIT)
    want = _roots(eager_generate_candidates, *args)
    assert len(want) > 500
    assert _roots(generate_candidates, *args) == want


@pytest.mark.parametrize("max_rules", [1, 7, 8, 9, 15, 16, 1000])
def test_key_fields_hold_counts_up_to_max_rules(max_rules):
    ctx = Featurizer(get_domain("file")).context(tuple(tokenize("delete the largest file")))
    weights = {"rule|call": 1.0, "rule|rjoin": 1.0, "rule|argmax": 1.0}
    scorer = ctx.scorer(weights, max_rules)
    assert scorer.width == max_rules.bit_length()
    m = max_rules
    preds = {("relation", "noSuchRelation"): m, ("method", "noSuchMethod"): m,
             ("operator", "noSuchOperator"): m, ("method", "removeFiles"): m}
    assert ("method", "removeFiles") in ctx.triggers
    bits, packed = scorer.key(preds, {"call": m, "rjoin": m, "argmax": m, "fjoin": m}, m)
    assert packed < 1 << scorer.width * (len(weights) + len(KINDS) + 1)
    assert scorer.decode(bits, packed) == (
        frozenset({("method", "removeFiles")}), {kind: m for kind in KINDS},
        {"argmax": m, "call": m, "rjoin": m}, m)
    too_big = scorer.key({}, {}, m + 1)
    with pytest.raises(AssertionError, match="exceeds max_rules"):
        scorer.decode(*too_big)
    with pytest.raises(AssertionError, match="exceeds max_rules"):
        scorer.score(True, *too_big)


def test_scorer_memo_never_mixes_roots_and_fragments():
    # the same predicate and rule counts score differently at the root,
    # where missing-predicate features fire
    domain = get_domain("file")
    ctx = Featurizer(domain).context(tuple(tokenize("delete the largest file")))
    weights = {"missing|delete|removeFiles": 1.5, "missing-any|method": 0.25}
    scorer = ctx.scorer(weights, CONFIG.max_rules)
    frag = Derivation(TypeSet("File"), "EntitySet", 1, (), (),
                      {"float-type": 1})
    key = scorer.key(frag.lf.preds, frag.rules, frag.size_used)
    assert scorer.score(False, *key) == 0.0
    assert scorer.score(True, *key) == kernels.dot(weights, ctx.features(frag, True)) == 1.75


def test_scorer_sums_packed_terms_after_each_root_flags_bits_total():
    # one form, so one `bits`, under sizes and rule counts that vary
    # `packed`; fragments and roots alternate, and roots add the missing
    # terms to the bits' running total. The size> and unevoked| weights
    # round differently unless the packed terms are summed in sorted key
    # order (size>10 before size>2, size> before unevoked|)
    domain = get_domain("lighting")
    ctx = Featurizer(domain).context(
        tuple(tokenize("turn off the largest light in the bedroom on the second floor")))
    lf = parse_lf("turnLightOff(Intersect(R[name].bedroom, R[type].Room))", domain)
    weights = {
        "cooc|turn off|turnLightOff": 0.1, "cooc-any|method|desc": 0.2,
        "missing|floor|floor": 0.3, "missing|light|lightMode": 1 / 7,
        "missing-any|relation": -0.7, "missing-any|operator": 1e-3,
        "rule|call": 1 / 3, "rule|intersect": -0.2, "rule|rjoin": 0.6,
        "size>2": 1e8, "size>3": -1e8, "size>10": 1 / 3, "size>12": 0.05,
        "unevoked|relation": 0.1, "unevoked|method": 5.0,
    }
    scorer = ctx.scorer(weights, 15)
    scores = set()
    for size in (9, 11, 15):
        for rules in ({"call": 1, "intersect": 1, "rjoin": 2},
                      {"call": 1, "intersect": 3, "rjoin": 5}):
            key = scorer.key(lf.preds, rules, size)
            for is_root in (False, True):
                d = Derivation(lf, "Root" if is_root else "EntitySet", size, (), (), rules)
                want = kernels.dot(weights, ctx.features(d, is_root))
                got = scorer.score(is_root, *key)
                assert repr(got) == repr(want), (size, rules, is_root)
                scores.add((is_root, got))
    assert len(scores) == 12


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


def test_mean_credit_builds_no_feature_dict(trained, monkeypatch):
    calls = []
    original = UtteranceContext.features

    def counting(self, deriv, is_root):
        calls.append(deriv)
        return original(self, deriv, is_root)

    monkeypatch.setattr(UtteranceContext, "features", counting)
    pipeline = Pipeline(get_domain, CONFIG)
    examples = _examples(1, seed=19)
    assert mean_credit(pipeline, trained, examples) > 0
    assert calls == []


def test_gradient_reads_the_reference_feature_dicts(trained):
    pipeline = Pipeline(get_domain, CONFIG)
    gradients = 0
    for ex in _examples(1, seed=19):
        cands = pipeline.analyze(ex, trained)
        domain = get_domain(ex.domain_id)
        ctx = pipeline.featurizer(domain).context(tuple(pipeline.tokens_of(ex.utterance)))
        want = [SimpleNamespace(features=ctx.features(c.deriv, True)) for c in cands]
        denots = [c.denotation for c in cands]
        got = example_log_likelihood(trained, cands, denots, ex.desired)
        assert got == example_log_likelihood(trained, want, denots, ex.desired)
        gradients += got is not None
        for c, ref in zip(cands, want):
            assert c.features == ref.features and list(c.features) == list(ref.features)
    assert gradients >= 5


def test_lazy_rules_keep_the_application_order(paper_state):
    # counts are summed on first read: the last rule first, then each
    # child's counts in child order, as when they were merged eagerly
    roots = generate_candidates(tokenize("turn off the light in the bedroom"), paper_state,
                                get_domain("lighting"), ParserConfig(beam_size=20, max_rules=7))
    by_form = {d.lf.printed: d for d in roots}
    d = by_form["turnLightOff(R[lightMode].ON)"]
    assert list(d.rules.items()) == [("call", 1), ("float-method", 1), ("rjoin", 1),
                                     ("float-relation", 1), ("float-sym", 1)]
    assert d.rules is d.rules
    d = by_form["turnLightOff(Intersect(R[name].bedroom, R[type].Room))"]
    assert list(d.rules) == ["call", "float-method", "intersect", "float-type", "rjoin",
                             "float-relation", "anchor-text"]
