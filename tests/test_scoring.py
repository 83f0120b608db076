"""The parser's compiled scorer and score-first chart against references.

The chart scores every candidate from a score key it composes from the
children's keys, with a ``ChartScorer`` built from the weights and the
utterance's tables, and decodes feature dicts from keys only on demand.
The reference is ``kernels.dot`` over the feature dict; every score must
equal it bit for bit, because fractional credit and the beams compare
scores with ``==``, and the trainer reads a candidate's score instead of
recomputing it. Every composed key must also be the key of, and read
back as, the counts that ``oracles.reference_preds`` and
``reference_rules`` take by walking the derivation's form and children.
The decoded dicts themselves must equal ``oracles.reference_features``,
which spells every template out as a string; their keys come in sorted
order.

``generate_candidates`` builds a ``Derivation`` only for the candidates
that survive their beams, so the checks that cover pruned candidates run
on ``oracles.eager_generate_candidates``, the chart that builds every
candidate, and a differential test holds the two charts' roots equal.
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from nlinstruct import kernels, parser
from nlinstruct.domains import get_domain
from nlinstruct.evaluation import mean_credit
from nlinstruct.features import (
    KIND_SHIFT,
    KINDS,
    MASK,
    MAX_RULES_LIMIT,
    RULE_SHIFT,
    RULES,
    SIZE_SHIFT,
    ChartScorer,
    Featurizer,
    UtteranceContext,
    tokenize,
)
from nlinstruct.logic import Call, Intersect, TypeSet
from nlinstruct.parser import Derivation, ParserConfig, Pipeline, generate_candidates
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad, example_log_likelihood
from conftest import join, root
from oracles import (
    eager_generate_candidates,
    reference_features,
    reference_preds,
    reference_rules,
)

CONFIG = ParserConfig(beam_size=20, max_rules=9)


def decode(ctx, bits: int, packed: int) -> tuple[frozenset, dict, dict, int]:
    """(triggered predicates, untriggered uses per kind, rule counts, size)
    of a score key, read at the layout's field shifts; zero counts are
    left out."""
    triggered = frozenset(pred for pred, bit in ctx.bit.items() if bits & bit)
    rules = {rule: packed >> shift & MASK for rule, shift in RULE_SHIFT.items()
             if packed >> shift & MASK}
    untriggered = {kind: packed >> shift & MASK for kind, shift in KIND_SHIFT.items()
                   if packed >> shift & MASK}
    return triggered, untriggered, rules, packed >> SIZE_SHIFT

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
    composed key is the one its form's predicates and its rule counts,
    walked from the tree, give."""
    for d in built:
        want = kernels.dot(weights, ctx.features(d, d.category == "Root"))
        assert d.score == want and repr(d.score) == repr(want), (label, d)
        preds, rules = reference_preds(d.lf), reference_rules(d)
        assert sum(rules.values()) == d.size_used <= max_rules, (label, d)
        assert (d.bits, d.packed) == ctx.key(preds, rules, d.size_used), (label, d)
        untriggered: Counter = Counter()
        for (kind, name), uses in preds.items():
            if (kind, name) not in ctx.triggers:
                untriggered[kind] += uses
        assert decode(ctx, d.bits, d.packed) == (
            frozenset(p for p in preds if p in ctx.triggers),
            dict(untriggered),
            dict(rules),
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
            assert (d.lf.printed, d.lf.args) == (fresh.printed, fresh.args), d
        checked.append(d)
        return d

    monkeypatch.setattr(parser, "_build", build)
    return checked


def _roots(chart, tokens, state, domain, config, weights) -> list[tuple]:
    roots = chart(tokens, state, domain, config, weights, Featurizer(domain))
    return [(d.lf.printed, repr(d.score), d.size_used, d.spans, list(reference_rules(d).items()))
            for d in roots]


@pytest.mark.parametrize("beam, max_rules", [
    *(pytest.param(beam, 9, id=str(beam)) for beam in (1, 2, 4, 20)),
    *(pytest.param(4, m, id=f"4-rules{m}") for m in (1, 2, 3, 4, 5, 15)),
    pytest.param(20, 15, id="20-rules15"),
])
def test_chart_returns_the_eager_reference_roots(trained, monkeypatch, beam, max_rules):
    # empty weights tie every score, so every cell is put in rank order
    # on printed forms alone; rule order shows that both charts meet each
    # intersection's operands in the same order; under "ordinal-pruned",
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
    # ties alone; only the offers that survive get a Derivation. Every
    # cell, full or not, leaf, set or root, settles in rank order, so its
    # derivations are built in strictly increasing (-score, printed, spans)
    config = ParserConfig(beam_size=4, max_rules=9)
    full = 0
    for ex in _examples(1, seed=19):
        built.clear()
        generate_candidates(tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id),
                            config, {})
        per_cell: dict[tuple, list] = {}
        for d in built:
            per_cell.setdefault((d.category, d.size_used), []).append(
                (-d.score, d.lf.printed, d.spans))
        for cell, ranks in per_cell.items():
            assert len(ranks) <= config.beam_size, (ex.id, cell, len(ranks))
            assert all(a < b for a, b in zip(ranks, ranks[1:])), (ex.id, cell, ranks)
        full += sum(len(ranks) == config.beam_size for ranks in per_cell.values())
    assert full > 50


def test_unbounded_and_paper_beams_return_the_eager_reference_roots(toy_domain, paper_state):
    state = toy_domain.generate_state(random.Random(2), {"things": (3, 3)})
    args = (["zap", "alpha", "3"], state, toy_domain,
            ParserConfig(beam_size=sys.maxsize, max_rules=15),
            {"rule|intersect": -0.5})
    want = _roots(eager_generate_candidates, *args)
    assert len(want) > 1000
    assert _roots(generate_candidates, *args) == want
    args = (tokenize("turn off the light in the bedroom on the second floor"), paper_state,
            get_domain("lighting"), ParserConfig(beam_size=200, max_rules=15), EXPLICIT)
    want = _roots(eager_generate_candidates, *args)
    assert len(want) > 500
    assert _roots(generate_candidates, *args) == want


def _twin_examples():
    """Utterances whose leaves have a twin: two leaves of one category that
    print alike at different spans. An ordinal word and a digit both
    anchor the value 2 (calendar, messenger), and a user's first name
    occurs twice (messenger)."""
    (cal, _), = build_domain_corpus(get_domain("calendar"), 1, seed=19)
    (msg, _), = build_domain_corpus(get_domain("messenger"), 1, seed=19)
    name = min(t.object.value for t in msg.initial.triples if t.relation == "firstName")
    return [dataclasses.replace(cal, utterance="remove the second event at 2"),
            dataclasses.replace(msg, utterance="mute the second group with 2 participants"),
            dataclasses.replace(msg, utterance=f"mute the groups with {name} and {name}")]


@pytest.mark.parametrize("max_rules", [9, 11])
@pytest.mark.parametrize("beam", [1, 2, 4, 20])
def test_twin_leaves_return_the_eager_reference_roots(trained, beam, max_rules):
    # a dropped offer leaves no dedup key. That is exact only while a
    # printed form fixes its spans. With twin leaves a later offer in
    # another cell can print alike at the same spans, as Intersect(R[index].2,
    # R[startTime].2) does at size 5 (the ordinal leaf and a join on the
    # digit) and at size 7 (two joins); the first must still win, so such
    # a parse drops nothing
    rng = random.Random(23)
    vectors = {"empty": {}, "trained": trained,
               "sign-flipped": {k: -w for k, w in trained.items()},
               "random": {k: rng.uniform(-1, 1) for k in sorted(trained)}}
    config = ParserConfig(beam_size=beam, max_rules=max_rules)
    for label, weights in vectors.items():
        for ex in _twin_examples():
            args = (tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id), config,
                    weights)
            want = _roots(eager_generate_candidates, *args)
            assert want, (label, ex.id)
            assert _roots(generate_candidates, *args) == want, (label, ex.id)


def _intersection_pairs(built: list, max_rules: int) -> int:
    """The intersection pairs a chart whose set cells hold the entity sets
    in ``built`` meets: two sets of sizes i <= j with i + j + 1 <= max_rules
    - 2 that print differently and claim no token twice."""
    cells: dict[int, list] = {}
    for d in built:
        if d.category == "EntitySet":
            cells.setdefault(d.size_used, []).append(d)
    pairs = 0
    for k in range(3, max_rules - 1):
        for i in range(1, (k - 1) // 2 + 1):
            left, right = cells.get(i, ()), cells.get(k - 1 - i, ())
            for x, a in enumerate(left):
                for b in (right[x + 1:] if 2 * i == k - 1 else right):
                    if (a.lf.printed != b.lf.printed
                            and parser.merge_spans(a.spans, b.spans) is not None):
                        pairs += 1
    return pairs


def test_intersections_below_the_running_cut_are_never_rendered(trained, built, monkeypatch):
    # every intersection pair the chart meets is scored; only those at or
    # above their cell's running cut are rendered, and none is dropped in
    # a parse with twin leaves
    rendered = []
    original = parser.render_intersect
    monkeypatch.setattr(parser, "render_intersect",
                        lambda a, b: rendered.append(1) or original(a, b))
    config = ParserConfig(beam_size=4, max_rules=9)

    def count(ex, weights) -> tuple[int, int]:
        built.clear()
        rendered.clear()
        generate_candidates(tokenize(ex.utterance), ex.initial, get_domain(ex.domain_id),
                            config, weights)
        return len(rendered), _intersection_pairs(built, config.max_rules)

    totals = Counter()
    for ex in _busy_examples():
        got, pairs = count(ex, trained)
        assert got <= pairs, ex.id
        totals.update(rendered=got, pairs=pairs)
    # with no drop every pair met would be rendered
    assert totals["rendered"] < 0.6 * totals["pairs"], totals
    for ex in _twin_examples():
        for weights in ({}, trained):
            got, pairs = count(ex, weights)
            assert got == pairs > 10, ex.id


@pytest.mark.parametrize("max_rules", [1, 7, 8, 9, 15, 16, MAX_RULES_LIMIT])
def test_key_fields_hold_counts_up_to_max_rules(max_rules):
    ctx = Featurizer(get_domain("file")).context(tuple(tokenize("delete the largest file")))
    m = max_rules
    preds = {("relation", "noSuchRelation"): m, ("method", "noSuchMethod"): m,
             ("operator", "noSuchOperator"): m, ("method", "removeFiles"): m}
    assert ("method", "removeFiles") in ctx.triggers
    bits, packed = ctx.key(preds, {"call": m, "rjoin": m, "argmax": m, "fjoin": m}, m)
    assert packed < 1 << SIZE_SHIFT + m.bit_length()
    assert decode(ctx, bits, packed) == (
        frozenset({("method", "removeFiles")}), {kind: m for kind in KINDS},
        {"argmax": m, "call": m, "rjoin": m, "fjoin": m}, m)
    scorer = ChartScorer(ctx, {"rule|call": 1.0}, max_rules)
    with pytest.raises(AssertionError, match="exceeds max_rules"):
        scorer.score(True, *ctx.key({}, {}, m + 1))


def test_the_widest_key_decodes_and_scores_exactly():
    # every packed field at its bound (a size of MAX_RULES_LIMIT, and each
    # rule and each kind's untriggered uses counted that many times), and
    # one rule counted that many times: decoding, then dot, must give the
    # scorer's float bit for bit, under a weight on every key
    m = MAX_RULES_LIMIT
    ctx = Featurizer(get_domain("file")).context(tuple(tokenize("delete the largest file")))
    untriggered = {("relation", "noSuchRelation"): m, ("method", "noSuchMethod"): m,
                   ("operator", "noSuchOperator"): m}
    keys = {"widest": ctx.key({**untriggered, ("method", "removeFiles"): 1},
                              dict.fromkeys(RULES, m), m),
            "one rule": ctx.key({("method", "removeFiles"): 1}, {"intersect": m}, m)}
    widest = keys["widest"][1]
    fields = [*RULE_SHIFT.values(), *KIND_SHIFT.values()]
    assert [widest >> shift & MASK for shift in fields] == [m] * len(fields)
    assert widest >> SIZE_SHIFT == m
    dicts = {(label, is_root): ctx.features(SimpleNamespace(bits=bits, packed=packed), is_root)
             for label, (bits, packed) in keys.items() for is_root in (False, True)}
    got = dicts["widest", True]
    assert {k: v for k, v in got.items() if k.startswith(("rule|", "unevoked|"))} == {
        **{f"rule|{r}": float(m) for r in RULES}, **{f"unevoked|{k}": float(m) for k in KINDS}}
    assert {k for k in got if k.startswith("size>")} == {f"size>{n}" for n in range(2, m)}
    rng = random.Random(5)
    weights = {k: rng.uniform(-3, 3) for feats in dicts.values() for k in feats}
    scorer = ChartScorer(ctx, weights, m)
    for (label, is_root), feats in dicts.items():
        assert list(feats) == sorted(feats)
        want = kernels.dot(weights, feats)
        assert repr(scorer.score(is_root, *keys[label])) == repr(want), (label, is_root)


def test_scorer_memo_never_mixes_roots_and_fragments():
    # the same predicate and rule counts score differently at the root,
    # where missing-predicate features fire
    domain = get_domain("file")
    ctx = Featurizer(domain).context(tuple(tokenize("delete the largest file")))
    weights = {"missing|delete|removeFiles": 1.5, "missing-any|method": 0.25}
    scorer = ChartScorer(ctx, weights, CONFIG.max_rules)
    frag = Derivation(TypeSet("File"), "EntitySet", 1, (), (), rule="float-type")
    frag.bits, frag.packed = ctx.key(reference_preds(frag.lf), reference_rules(frag), 1)
    assert scorer.score(False, frag.bits, frag.packed) == 0.0
    assert (scorer.score(True, frag.bits, frag.packed)
            == kernels.dot(weights, ctx.features(frag, True)) == 1.75)


def test_scorer_sums_packed_terms_after_each_root_flags_bits_total():
    # one form, so one `bits`, under sizes and rule counts that vary
    # `packed`; fragments and roots alternate, and roots add the missing
    # terms to the bits' running total. The size> and unevoked| weights
    # round differently unless the packed terms are summed in sorted key
    # order (size>10 before size>2, size> before unevoked|)
    domain = get_domain("lighting")
    featurizer = Featurizer(domain)
    tokens = tuple(tokenize("turn off the largest light in the bedroom on the second floor"))
    ctx = featurizer.context(tokens)
    lf = root(domain, "turnLightOff", Intersect(join("name", "bedroom"), TypeSet("Room")))
    weights = {
        "cooc|turn off|turnLightOff": 0.1, "cooc-any|method|desc": 0.2,
        "missing|floor|floor": 0.3, "missing|light|lightMode": 1 / 7,
        "missing-any|relation": -0.7, "missing-any|operator": 1e-3,
        "rule|call": 1 / 3, "rule|intersect": -0.2, "rule|rjoin": 0.6,
        "size>2": 1e8, "size>3": -1e8, "size>10": 1 / 3, "size>12": 0.05,
        "unevoked|relation": 0.1, "unevoked|method": 5.0,
    }
    scorer = ChartScorer(ctx, weights, 15)
    scores = set()
    for size in (9, 11, 15):
        for rules in ({"call": 1, "intersect": 1, "rjoin": 2},
                      {"call": 1, "intersect": 3, "rjoin": 5}):
            key = ctx.key(reference_preds(lf), rules, size)
            for is_root in (False, True):
                feats = reference_features(tokens, featurizer.lexicon, True, lf, rules, size,
                                           is_root)
                want = kernels.dot(weights, feats)
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
    d = Derivation(TypeSet("File"), "Root", 1, (), ())
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
    # the reference candidates carry the string-template dicts and the
    # score kernels.dot gives over them, and add their features with
    # kernels.add_scaled; the trainer reads the chart's scores and adds
    # each candidate's features from its score key, and must agree bit for
    # bit
    pipeline = Pipeline(get_domain, CONFIG)
    gradients = 0
    for ex in _examples(1, seed=19):
        cands = pipeline.analyze(ex, trained)
        tokens = tokenize(ex.utterance)
        lexicon = pipeline.featurizer(get_domain(ex.domain_id)).lexicon
        want = []
        for c in cands:
            d = c.deriv
            feats = reference_features(tokens, lexicon, True, d.lf, reference_rules(d),
                                       d.size_used, True)
            want.append(SimpleNamespace(
                features=feats, deriv=SimpleNamespace(score=kernels.dot(trained, feats)),
                add_features=lambda acc, scale, feats=feats: kernels.add_scaled(acc, feats, scale)))
        denots = [c.denotation for c in cands]
        got = example_log_likelihood(cands, denots, ex.desired)
        ref = example_log_likelihood(want, denots, ex.desired)
        assert got == ref
        if got is not None:
            gradients += 1
            assert got[0].hex() == ref[0].hex()
            assert list(got[1]) == list(ref[1]), ex.id
            assert {k: v.hex() for k, v in got[1].items()} == \
                {k: v.hex() for k, v in ref[1].items()}, ex.id
        for c, ref in zip(cands, want):
            assert c.features == ref.features and list(c.features) == sorted(ref.features)
            assert repr(c.deriv.score) == repr(ref.deriv.score)
    assert gradients >= 5


# a gradient part way through, with values whose sums round differently
# depending on the order of the additions
ACCUMULATED = {"rule|call": 0.1, "size>2": 1e16, "cooc-any|method|desc": -1 / 3,
               "unevoked|relation": 2.5e-8, "missing-any|relation": -0.0}


def _check_feature_dicts(built, examples, config, use_new_features) -> tuple[Counter, set]:
    """Every root and fragment the eager chart builds for ``examples``,
    pruned ones too, each read both as a root and as a fragment, decodes
    to the reference dict, keys in sorted order, and adds to a gradient
    exactly as ``kernels.add_scaled`` adds the reference dict; returns the
    derivations checked per (domain, category) and the template families
    seen."""
    checked: Counter = Counter()
    templates = set()
    for ex in examples:
        domain = get_domain(ex.domain_id)
        featurizer = Featurizer(domain, use_new_features)
        tokens = tokenize(ex.utterance)
        built.clear()
        eager_generate_candidates(tokens, ex.initial, domain, config, EXPLICIT, featurizer)
        ctx = featurizer.context(tokens)
        for d in built:
            rules = reference_rules(d)
            for is_root in (False, True):
                got = ctx.features(d, is_root)
                want = reference_features(tokens, featurizer.lexicon, use_new_features, d.lf,
                                          rules, d.size_used, is_root)
                assert got == want and list(got) == sorted(want), (ex.id, d, is_root)
                templates.update(re.match(r"[a-z-]+[|>]", k).group() for k in got)
                # the gradient's accumulation into a filled dict, against
                # kernels.add_scaled over the reference dict
                acc, ref = dict(ACCUMULATED), dict(ACCUMULATED)
                ctx.add_features(acc, is_root, d.bits, d.packed, -0.37)
                kernels.add_scaled(ref, want, -0.37)
                assert list(acc) == list(ref), (ex.id, d, is_root)
                assert [v.hex() for v in acc.values()] == [v.hex() for v in ref.values()], \
                    (ex.id, d, is_root)
            checked[ex.domain_id, d.category] += 1
    return checked, templates


@pytest.mark.parametrize("use_new_features", [True, False])
def test_feature_dicts_equal_the_string_template_reference(built, use_new_features):
    # every domain, new templates on and off
    checked, templates = _check_feature_dicts(
        built, _busy_examples() + _ordinal_examples(), CONFIG, use_new_features)
    for did in CORPUS_DOMAINS:
        assert checked[did, "Root"] > 50 and checked[did, "EntitySet"] > 200, did
    new = {"unevoked|", "size>"} if use_new_features else set()
    assert templates == {"cooc|", "cooc-any|", "missing|", "missing-any|", "rule|"} | new


@pytest.mark.parametrize("max_rules", [15, MAX_RULES_LIMIT])
def test_feature_dicts_equal_the_reference_at_large_rule_budgets(built, max_rules):
    # one example per domain, at a small beam, where sizes and rule counts
    # reach the budget
    sizes = set()
    for ex in _busy_examples():
        _check_feature_dicts(built, [ex], ParserConfig(beam_size=2, max_rules=max_rules), True)
        sizes.update(d.size_used for d in built)
    assert max(sizes) == max_rules
