"""The parser's leaf table on a state against parses of fresh states.

Everything the chart does before its first settle, except scoring, reads
only the utterance context (tokens, domain, template setting) and the
state's text values: the leaf forms with their spans, rules and score
keys, the dedup keys they leave and the twin flag. A state keeps them per
context from its second parse on (``State.leaf_tables``), and later
parses replay them under their own weights. These tests parse one state
object again and again under changing weights and hold every parse to a
parse of a freshly built equal state, which computes its leaves itself:
the same candidates in the same order, with the same spans, scores (by
``float.hex``) and denotations.
"""

from __future__ import annotations

import dataclasses

import pytest

from nlinstruct.domains import get_domain
from nlinstruct.features import Featurizer, tokenize
from nlinstruct.kb import State, TextVal
from nlinstruct.parser import ParserConfig, Pipeline, infer
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad

from test_memos import LARGE_RANGES
from test_scoring import _twin_examples

CONFIG = ParserConfig(beam_size=20, max_rules=9)


def _copy(state: State) -> State:
    """An equal state object with empty memos and no indexes."""
    return State(state.domain_id, state.entities, state.triples)


def _text_examples() -> list:
    """One example per domain whose states hold text, its utterance
    extended with a text value of its state, so that an anchor-text leaf
    comes from the state's text scan."""
    out = []
    for domain_id in CORPUS_DOMAINS:
        (ex, _), = build_domain_corpus(get_domain(domain_id), 1, seed=29)
        texts = sorted(t.object.value for t in ex.initial.triples if isinstance(t.object, TextVal))
        if texts:
            out.append(dataclasses.replace(ex, utterance=f"{ex.utterance} named {texts[0]}"))
    return out


def _examples() -> list:
    out = []
    for domain_id in CORPUS_DOMAINS:
        domain = get_domain(domain_id)
        for ranges in (None, LARGE_RANGES[domain_id]):
            out += [ex for ex, _ in build_domain_corpus(domain, 1, seed=31, ranges=ranges)]
    return out + _twin_examples() + _text_examples()


@pytest.fixture(scope="module")
def weights() -> list:
    """Weight vectors in the order the parses of one state meet them:
    each comes again once the table is filled, so every vector is met by
    a replay."""
    pipeline = Pipeline(get_domain, CONFIG)
    examples = [ex for did in CORPUS_DOMAINS
                for ex, _ in build_domain_corpus(get_domain(did), 1, seed=3)]
    trained = adagrad(examples, {}, TrainConfig(iterations=1, seed=7), pipeline)
    assert len(trained) > 20
    flipped = {k: -w for k, w in trained.items()}
    return [("trained", trained), ("empty", {}), ("sign-flipped", flipped),
            ("trained", trained), ("empty", {})]


def _parse(tokens, state, domain, config, weights, featurizer, use_filter) -> list:
    return [(c.deriv.lf.printed, c.deriv.spans, c.deriv.size_used, c.deriv.rule,
             c.deriv.score.hex(), c.denotation)
            for c in infer(tokens, state, domain, config, weights, featurizer, use_filter)]


def _check_reparses(examples, config, weights) -> int:
    """Parses each example's state object once per weight vector, with the
    filter on and off, each against a fresh equal state; returns the
    candidates compared."""
    compared = 0
    for use_filter in (True, False):
        for ex in examples:
            domain = get_domain(ex.domain_id)
            featurizer = Featurizer(domain)
            tokens = tokenize(ex.utterance)
            state = _copy(ex.initial)
            for i, (label, w) in enumerate(weights):
                got = _parse(tokens, state, domain, config, w, featurizer, use_filter)
                want = _parse(tokens, _copy(state), domain, config, w, featurizer, use_filter)
                assert got == want, (ex.id, ex.utterance, label, i, use_filter)
                compared += len(got)
    return compared


def test_reparses_of_one_state_equal_parses_of_fresh_states(weights):
    # every domain at default and large sizes, ordinal-plus-digit twins and
    # text-anchored utterances, at beam 20 and 9 rules
    examples = _examples()
    assert {ex.domain_id for ex in examples} == set(CORPUS_DOMAINS)
    assert _check_reparses(examples, CONFIG, weights) > 10_000


@pytest.mark.parametrize("beam", [1, 2, 4])
def test_reparses_with_twin_leaves_at_small_beams(weights, beam):
    # a parse whose leaves have a twin drops nothing; a replay that lost
    # the twin flag would drop offers here
    _check_reparses(_twin_examples(), ParserConfig(beam_size=beam, max_rules=11), weights)


def test_a_state_parsed_once_keeps_no_table_and_one_parsed_twice_keeps_one(weights):
    (ex, _), = build_domain_corpus(get_domain("list"), 1, seed=31)
    domain = get_domain(ex.domain_id)
    featurizer = Featurizer(domain)
    tokens = tokenize(ex.utterance)
    state = _copy(ex.initial)
    assert state._leaf_tables is None
    infer(tokens, state, domain, CONFIG, weights[0][1], featurizer)
    ctx = featurizer.context(tokens)
    assert state.leaf_tables == {ctx: None}
    infer(tokens, state, domain, CONFIG, weights[1][1], featurizer)
    leaves, seen, twin = state.leaf_tables[ctx]
    assert len(state.leaf_tables) == 1 and leaves and len(seen) == len(leaves)
    # a replay keeps the table as it is, and another utterance starts its own
    infer(tokens, state, domain, CONFIG, weights[2][1], featurizer)
    assert state.leaf_tables[ctx] == (leaves, seen, twin)
    other = tokenize(ex.utterance + " please")
    infer(other, state, domain, CONFIG, weights[2][1], featurizer)
    assert state.leaf_tables[featurizer.context(other)] is None
    # a state derived from a parsed one starts with no table
    derived = state.without_entities([min(state.entities, key=lambda e: e.id)])
    assert derived._leaf_tables is None


def _table(ex):
    """The leaf table of an example's state after two parses."""
    domain = get_domain(ex.domain_id)
    featurizer = Featurizer(domain)
    tokens = tokenize(ex.utterance)
    for _ in range(2):
        infer(tokens, ex.initial, domain, CONFIG, {}, featurizer)
    return ex.initial.leaf_tables[featurizer.context(tokens)]


def test_the_table_holds_the_twin_flag_of_its_utterance():
    for ex in _twin_examples():
        assert _table(ex)[2] is True, ex.utterance
    (plain, _), = build_domain_corpus(get_domain("list"), 1, seed=31)
    assert _table(plain)[2] is False
