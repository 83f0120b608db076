from __future__ import annotations

import gc
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from nlinstruct import parser
from nlinstruct.domains import get_domain, invoke
from nlinstruct.domains.base import typed_entity
from nlinstruct.errors import ConfigError, DomainLogicError
from nlinstruct.features import tokenize
from nlinstruct.kb import Entity, IntVal, State, SymVal, TextVal, Triple
from nlinstruct.logic import execute_to_call
from nlinstruct.parser import (
    Derivation,
    ParserConfig,
    Pipeline,
    generate_candidates,
    infer,
    merge_spans,
)
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus

from oracles import EnumerationBudget, eager_generate_candidates, enumerate_all_forms


def _bedroom_floor2_state() -> State:
    r1, t1 = typed_entity("room1", "Room")
    r2, t2 = typed_entity("room2", "Room")
    return State(
        "lighting",
        [r1, r2],
        [
            t1,
            Triple(r1, "name", TextVal("bedroom")),
            Triple(r1, "floor", IntVal(2)),
            Triple(r1, "lightMode", SymVal("ON")),
            t2,
            Triple(r2, "name", TextVal("bedroom")),
            Triple(r2, "floor", IntVal(1)),
            Triple(r2, "lightMode", SymVal("ON")),
        ],
    )


def test_candidates_cover_the_compositional_reading():
    domain = get_domain("lighting")
    state = _bedroom_floor2_state()
    cands = generate_candidates(
        tokenize("turn off the light in the bedroom on floor 2"),
        state, domain, ParserConfig(beam_size=100, max_rules=11), {},
    )
    printed = {d.lf.printed for d in cands}
    assert "turnLightOff(Intersect(R[floor].2, R[name].bedroom))" in printed


def test_floating_rules_need_no_anchors():
    domain = get_domain("lighting")
    state = _bedroom_floor2_state()
    cands = generate_candidates(
        tokenize("please do the thing"), state, domain,
        ParserConfig(beam_size=50, max_rules=7), {},
    )
    assert cands
    assert all(not d.spans for d in cands)


def test_every_derivation_respects_the_rule_cap():
    domain = get_domain("container")
    state = domain.generate_state(random.Random(3), domain.default_ranges)
    for max_rules in (5, 9, 15):
        cands = generate_candidates(
            tokenize("unload the container in terminal four"), state, domain,
            ParserConfig(beam_size=40, max_rules=max_rules), {},
        )
        assert cands and all(d.size_used <= max_rules for d in cands)


def test_size_used_is_one_plus_children_sum():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(5), domain.default_ranges)
    cands = generate_candidates(
        tokenize("fire bob and alice"), state, domain,
        ParserConfig(beam_size=30, max_rules=9), {},
    )

    def check(d: Derivation):
        assert d.size_used == 1 + sum(c.size_used for c in d.children)
        for c in d.children:
            check(c)

    for d in cands:
        check(d)


def test_sibling_spans_never_overlap():
    assert merge_spans(((0, 1),), ((0, 1),)) is None
    assert merge_spans(((0, 2),), ((1, 3),)) is None
    assert merge_spans(((0, 1),), ((2, 3),)) == ((0, 1), (2, 3))


def _survivors(tokens, state, domain, config) -> list[Derivation]:
    return [c.deriv for c in infer(tokens, state, domain, config, {})]


def _keys(derivs) -> set:
    return {(d.lf.printed, d.spans) for d in derivs}


def _best(cands):
    """Every maximal-score candidate, ties kept, in printed order."""
    top = max(c.deriv.score for c in cands)
    return sorted((c for c in cands if c.deriv.score == top),
                  key=lambda c: (c.deriv.lf.printed, c.deriv.spans))


def test_filter_drops_no_change_calls():
    domain = get_domain("lighting")
    r1, t1 = typed_entity("room1", "Room")
    state = State(
        "lighting",
        [r1],
        [t1, Triple(r1, "name", TextVal("bedroom")), Triple(r1, "floor", IntVal(1)),
         Triple(r1, "lightMode", SymVal("OFF"))],
    )
    tokens, config = tokenize("turn off the bedroom light"), ParserConfig(beam_size=50, max_rules=9)
    cands = generate_candidates(tokens, state, domain, config, {})
    survivors = _survivors(tokens, state, domain, config)
    assert _keys(survivors) <= _keys(cands)
    assert any(d.lf.method.name == "turnLightOff" for d in cands)
    assert all(d.lf.method.name != "turnLightOff" for d in survivors)
    for d in survivors:
        result = invoke(domain, state, execute_to_call(d.lf, state))
        assert result != state


def test_filter_drops_domain_exceptions():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(13), {"employees": (5, 5)})
    tokens, config = tokenize("assign bob to carol"), ParserConfig(beam_size=60, max_rules=9)
    cands = generate_candidates(tokens, state, domain, config, {})
    survivors = _survivors(tokens, state, domain, config)
    assert len(survivors) < len(cands)
    for d in survivors:
        invoke(domain, state, execute_to_call(d.lf, state))  # must not raise


def test_filter_never_drops_the_gold_candidate():
    from nlinstruct.domains import generate_state_pair

    rng = random.Random(31)
    config = ParserConfig(beam_size=sys.maxsize, max_rules=7)
    for domain_id in ("lighting", "list"):
        domain = get_domain(domain_id)
        for method in domain.methods:
            state, call, desired = generate_state_pair(domain, method, rng)
            cands = generate_candidates([], state, domain, config, {})
            survivors = _survivors([], state, domain, config)
            kept = {d.lf.printed for d in survivors}
            for d in cands:
                if d.lf.printed in kept:
                    continue
                try:
                    result = invoke(domain, state, execute_to_call(d.lf, state))
                except Exception:
                    continue
                assert result != desired


def test_predict_single_survivor():
    domain = get_domain("lighting")
    r1, t1 = typed_entity("room1", "Room")
    state = State(
        "lighting",
        [r1],
        [t1, Triple(r1, "name", TextVal("bedroom")), Triple(r1, "floor", IntVal(1)),
         Triple(r1, "lightMode", SymVal("OFF"))],
    )
    weights = {"cooc-any|method|desc": 5.0, "size>2": -1.0, "size>3": -1.0, "size>4": -1.0}
    best = _best(infer(tokenize("turn on the light"), state, domain,
                       ParserConfig(beam_size=50, max_rules=7), weights))
    assert best[0].deriv.lf.printed == "turnLightOn(R[type].Room)"
    result = best[0].denotation
    assert result is not None
    (mode,) = result.objects(Entity("room1", "Room"), "lightMode")
    assert mode.name == "ON"


def test_predict_preserves_score_ties():
    domain = get_domain("calendar")
    e1, t1 = typed_entity("ev1", "Event")
    state = State(
        "calendar",
        [e1],
        [t1, Triple(e1, "title", TextVal("standup")), Triple(e1, "startTime", IntVal(9)),
         Triple(e1, "location", TextVal("office")), Triple(e1, "color", SymVal("RED")),
         Triple(e1, "attendees", IntVal(3)), Triple(e1, "index", IntVal(1))],
    )
    weights = {"cooc|recolor|setEventColor": 1.0}
    best = [c.deriv for c in _best(infer(tokenize("recolor everything"), state, domain,
                                         ParserConfig(beam_size=80, max_rules=7), weights))]
    assert len({d.score for d in best}) == 1
    assert all(d.lf.printed.startswith("setEventColor(") for d in best)
    printed = {d.lf.printed for d in best}
    # repainting with the current color was filtered; the other three tie
    for color in ("GREEN", "BLUE", "YELLOW"):
        assert f"setEventColor(R[type].Event, {color})" in printed
    assert "setEventColor(R[type].Event, RED)" not in printed


def test_predict_raises_on_empty_candidates():
    # a parse failure is an empty candidate list; `nlinstruct parse` exits 4 on it
    domain = get_domain("lighting")
    state = State("lighting", [], [])
    assert infer(tokenize("turn off the light"), state, domain,
                 ParserConfig(beam_size=10, max_rules=7), {}) == []


def test_inference_is_deterministic():
    domain = get_domain("messenger")
    state = domain.generate_state(random.Random(4), domain.default_ranges)
    config = ParserConfig(beam_size=25, max_rules=9)
    weights = {"rule|anchor-text": 0.5, "cooc-any|method|desc": 1.0}
    runs = []
    for _ in range(2):
        cands = generate_candidates(
            tokenize("mute the biggest group"), state, domain, config, weights)
        runs.append([(d.lf.printed, d.score, d.spans) for d in cands])
    assert runs[0] == runs[1]


def test_beam_infinity_matches_exhaustive_enumeration_small(toy_domain):
    state = toy_domain.generate_state(random.Random(2), {"things": (3, 3)})
    tokens = ["zap", "alpha", "3"]
    for max_rules in (7, 9):
        cands = generate_candidates(
            tokens, state, toy_domain, ParserConfig(beam_size=sys.maxsize, max_rules=max_rules),
            {},
        )
        got = {d.lf.printed for d in cands}
        want, truncated = enumerate_all_forms(
            toy_domain, state, tokens, EnumerationBudget(max_size=max_rules)
        )
        assert not truncated
        assert got == want


def test_a_digit_run_too_long_for_int_anchors_no_integer(toy_domain):
    # int() refuses digit runs longer than the interpreter's limit (4,300
    # digits by default); such a token then anchors nothing, in the chart
    # and in both references, instead of raising
    state = toy_domain.generate_state(random.Random(2), {"things": (3, 3)})
    long_run = "7" * 5000
    try:
        anchors = int(long_run) > 0
    except ValueError:
        anchors = False
    tokens = ["zap", long_run, "alpha", "3"]
    config = ParserConfig(beam_size=sys.maxsize, max_rules=7)
    got = [(d.lf.printed, d.spans, repr(d.score)) for d in generate_candidates(
        tokens, state, toy_domain, config, {"rule|anchor-int": 0.5})]
    assert got == [(d.lf.printed, d.spans, repr(d.score)) for d in eager_generate_candidates(
        tokens, state, toy_domain, config, {"rule|anchor-int": 0.5})]
    want, truncated = enumerate_all_forms(toy_domain, state, tokens, EnumerationBudget(max_size=7))
    assert not truncated and {printed for printed, _, _ in got} == want
    assert any(long_run in printed for printed in want) == anchors
    assert any(spans == ((3, 4),) for _, spans, _ in got)  # the short run still anchors


@pytest.mark.parametrize("beam", [0, -3, None, True, 20.0])
def test_parser_config_refuses_a_beam_that_is_not_a_positive_int(beam):
    with pytest.raises(ConfigError, match="beam size must be a positive integer"):
        ParserConfig(beam_size=beam)


@pytest.mark.parametrize("rules", [9.0, True, None, "9"])
def test_parser_config_refuses_max_rules_that_is_not_an_int(rules):
    with pytest.raises(ConfigError, match="max rule applications must be an integer"):
        ParserConfig(max_rules=rules)


def test_beam_pruning_only_shrinks_the_candidate_set(toy_domain):
    state = toy_domain.generate_state(random.Random(2), {"things": (3, 3)})
    tokens = ["zap", "alpha"]
    wide = {d.lf.printed for d in generate_candidates(
        tokens, state, toy_domain, ParserConfig(beam_size=sys.maxsize, max_rules=9), {})}
    narrow = {d.lf.printed for d in generate_candidates(
        tokens, state, toy_domain, ParserConfig(beam_size=5, max_rules=9), {})}
    assert narrow <= wide


def test_pipeline_analyze_returns_denotations():
    domain = get_domain("list")
    from nlinstruct.domains.base import Example

    state = domain.generate_state(random.Random(8), {"elements": (4, 4), "values": (1, 9)})
    element = sorted(state.entities, key=lambda e: e.id)[0]
    from nlinstruct.domains.base import MethodCall

    desired = invoke(domain, state, MethodCall(domain.method("remove"), (frozenset((element,)),)))
    ex = Example("x", "list", state, "remove the first element", desired)
    pipeline = Pipeline(lambda _id: domain, ParserConfig(beam_size=30, max_rules=7))
    cands = pipeline.analyze(ex, {})
    assert cands
    for c in cands:
        assert c.denotation is not None
        assert c.denotation != state


# ---------------------------------------------------------------------------
# infer pauses the cycle collector
# ---------------------------------------------------------------------------


def test_infer_pauses_the_collector_and_gives_back_the_callers_setting(toy_domain):
    seen = []

    def watched(state, call):
        seen.append(gc.isenabled())
        return toy_domain.logic(state, call)

    def broken(state, call):
        raise RuntimeError("broken logic")

    def fresh():
        return toy_domain.generate_state(random.Random(2), {"things": (3, 3)})

    tokens, config = ["zap", "alpha"], ParserConfig(beam_size=5, max_rules=9)
    was = gc.isenabled()
    try:
        gc.enable()
        assert infer(tokens, fresh(), replace(toy_domain, logic=watched), config)
        assert seen and not any(seen)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="broken logic"):
            infer(tokens, fresh(), replace(toy_domain, logic=broken), config)
        assert gc.isenabled()

        gc.disable()
        assert infer(tokens, fresh(), replace(toy_domain, logic=watched), config)
        assert not gc.isenabled()
        with pytest.raises(RuntimeError, match="broken logic"):
            infer(tokens, fresh(), replace(toy_domain, logic=broken), config)
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_a_parse_leaves_no_cyclic_garbage(monkeypatch):
    """:func:`infer` pauses the collector because a parse makes no reference
    cycle, so reference counting frees all it drops. A change that puts a
    derivation, state or exception into a cycle must fail here rather than
    leak until the next sweep."""
    outcomes = Counter()

    def counted_invoke(domain, state, call):
        try:
            result = invoke(domain, state, call)
        except DomainLogicError:
            outcomes["raised"] += 1
            raise
        outcomes["unchanged" if result == state else "changed"] += 1
        return result

    monkeypatch.setattr(parser, "invoke", counted_invoke)
    parses = []
    for domain_id in CORPUS_DOMAINS:
        domain = get_domain(domain_id)
        ex, _ = build_domain_corpus(domain, 1, seed=23)[0]
        parses.append((domain, ex.utterance, ex.initial, ParserConfig(20, 9)))
        if domain_id == "file":  # its Intersect cells are the largest at beam 200, 15 rules
            parses.append((domain, ex.utterance, ex.initial, ParserConfig()))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for domain, utterance, state, config in parses:
            for use_filter in (True, False):
                # an equal state with empty memos, so every call is invoked
                state = State(state.domain_id, state.entities, state.triples)
                assert infer(tokenize(utterance), state, domain, config, use_filter=use_filter)
                assert gc.collect() == 0, (domain.id, use_filter)
    finally:
        if was:
            gc.enable()
    assert {d.id for d, *_ in parses} == set(CORPUS_DOMAINS)
    assert min(outcomes["raised"], outcomes["unchanged"], outcomes["changed"]) > 0, outcomes
