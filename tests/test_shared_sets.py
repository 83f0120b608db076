"""One shared frozenset per single value.

Every frozenset that a state's indexes or its denotation memo hold with
exactly one value is ``kb.SINGLETONS[value]``, whichever state, root or
derived, built it. These tests hold each read to a set built from the
triples from scratch and to the brute-force oracle, check that the
single-valued ones are the shared objects, and count the distinct
single-valued sets a large state holds against its distinct values.
"""

from __future__ import annotations

import random

import pytest

from nlinstruct.domains import builtin_domains, get_domain
from nlinstruct.domains.base import MethodCall, invoke, typed_entity
from nlinstruct.domains.generate import sample_arguments
from nlinstruct.errors import DomainLogicError, ExecutionError
from nlinstruct.features import tokenize
from nlinstruct.kb import SINGLETONS, Entity, IntVal, State, SymVal, TextVal, Triple, frozen
from nlinstruct.logic import ForwardJoin, Intersect, ReverseJoin, ValueLit, evaluate
from nlinstruct.parser import ParserConfig, _arguments, generate_candidates, infer
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus

from oracles import _object_matches, brute_force_denotation
from test_memos import LARGE_RANGES

CONFIG = ParserConfig(20, 9)


def _built_apart(state: State) -> State:
    """An equal root state, built from the triples with fresh indexes."""
    return State(state.domain_id, list(state.entities), list(state.triples))


def _mixed_case_lighting() -> State:
    """Rooms whose names differ only in case, so the text path of
    ``subjects`` keeps part of a folded key's subjects."""
    (r1, t1), (r2, t2), (r3, t3) = (typed_entity(f"room{i}", "Room") for i in (1, 2, 3))
    return State("lighting", [r1, r2, r3], [
        t1, t2, t3,
        Triple(r1, "name", TextVal("Kitchen")), Triple(r2, "name", TextVal("kitchen")),
        Triple(r3, "name", TextVal("kitchen")), Triple(r3, "name", TextVal("Pantry")),
        Triple(r1, "floor", IntVal(1)), Triple(r2, "floor", IntVal(1)), Triple(r3, "floor", IntVal(2)),
        Triple(r1, "lightMode", SymVal("OFF")), Triple(r2, "lightMode", SymVal("OFF")),
        Triple(r3, "lightMode", SymVal("ON")),
    ])


def _reads(state: State):
    """(what, result, from-scratch set) of every key the triples make, for
    ``objects``, ``subjects`` and ``subjects_matching``, and a miss each."""
    triples = state.triples
    ghost = Entity("ghost-of-a-test", "Nothing")
    for s, r in {(t.subject, t.relation) for t in triples} | {(ghost, "type")}:
        yield ("objects", s, r), state.objects(s, r), frozenset(
            t.object for t in triples if t.subject is s and t.relation == r)
    for r, o in {(t.relation, t.object) for t in triples} | {("type", SymVal("NoSuchType"))}:
        yield ("subjects", r, o), state.subjects(r, o), frozenset(
            t.subject for t in triples if t.relation == r and t.object is o)
        yield ("subjects_matching", r, o), state.subjects_matching(r, o), frozenset(
            t.subject for t in triples if t.relation == r and _object_matches(t.object, o))


def _check_reads(state: State) -> int:
    """Assert every read equals its from-scratch set and a single-valued
    one is the shared set; return how many single-valued reads there were."""
    singles = 0
    for what, got, expected in _reads(state):
        assert got == expected and type(got) is frozenset, (what, got, expected)
        if len(got) == 1:
            (value,) = got
            assert got is SINGLETONS[value], what
            singles += 1
    return singles


def _derived(domain, state: State, rng: random.Random, count: int = 12):
    """States derived from ``state`` by the domain's methods, in turn, on
    sampled arguments; every other one is derived from the one before."""
    out = []
    current = state
    for i in range(count):
        method = domain.methods[i % len(domain.methods)]
        args = sample_arguments(domain, current, method, rng)
        if args is None:
            continue
        try:
            result = invoke(domain, current, MethodCall(method, args))
        except (DomainLogicError, ExecutionError):
            continue
        out.append(result)
        current = result if len(out) % 2 else state
    return out


def _states():
    for domain in builtin_domains():
        ranges = LARGE_RANGES.get(domain.id)
        for seed in (3, 4):
            yield domain, domain.generate_state(random.Random(seed), ranges or {})
    yield get_domain("lighting"), _mixed_case_lighting()


STATES = list(_states())


@pytest.mark.parametrize("domain, state", STATES,
                         ids=[f"{d.id}-{i}" for i, (d, _) in enumerate(STATES)])
def test_single_valued_reads_are_one_set_across_states_built_apart_and_derived(domain, state):
    a, b = _built_apart(state), _built_apart(state)
    assert _check_reads(a) > 0
    # the same keys of an equal state built apart give the same objects
    for (what, got_a, _), (_, got_b, _) in zip(_reads(a), _reads(b)):
        if len(got_a) == 1:
            assert got_a is got_b, what
    derived = _derived(domain, a, random.Random(f"derived:{domain.id}"))
    assert derived
    for d in derived:
        _check_reads(d)
    # hand-made changes: a value moves to a key that had two, a key loses
    # one of two values, and an entity goes with every triple it touches
    subject = min(a.entities, key=lambda e: e.id)
    extra = Triple(subject, "type", SymVal("Extra"))
    widened = a.replace_triples([], [extra])
    _check_reads(widened)
    _check_reads(widened.replace_triples([extra], []))
    _check_reads(a.without_entities([subject]))


def test_the_text_path_keeps_exact_matches_and_shares_single_ones():
    state = _mixed_case_lighting()
    r1, r2, r3 = sorted(state.entities, key=lambda e: e.id)
    assert state.subjects_matching("name", TextVal("KITCHEN")) == {r1, r2, r3}
    kitchen = state.subjects("name", TextVal("Kitchen"))
    assert kitchen == {r1} and kitchen is SINGLETONS[r1]
    assert state.subjects("name", TextVal("kitchen")) == {r2, r3}
    pantry = state.subjects("name", TextVal("Pantry"))
    # every subject under the folded key matches exactly: the index's own set
    assert pantry is state.subjects_matching("name", TextVal("pantry")) is SINGLETONS[r3]
    assert state.subjects("name", TextVal("KITCHEN")) == frozenset()


def test_frozen_shares_what_it_can():
    one, two = IntVal(1), IntVal(2)
    pair = frozenset((one, two))
    assert frozen(pair) is pair
    assert frozen([one, two]) == pair
    assert frozen({one}) is frozen([one]) is SINGLETONS[one]
    assert frozen(frozenset((one,))) is SINGLETONS[one]
    assert frozen([]) is frozen(set()) is frozen(frozenset())
    assert SINGLETONS[TextVal("ON")] is not SINGLETONS[SymVal("ON")]


def _examples():
    for domain_id in CORPUS_DOMAINS:
        domain = get_domain(domain_id)
        for ex, _ in build_domain_corpus(domain, 2, seed=29, ranges=LARGE_RANGES[domain_id]):
            yield domain, ex


EXAMPLES = list(_examples())


@pytest.mark.parametrize("domain, ex", EXAMPLES, ids=[ex.id for _, ex in EXAMPLES])
def test_memo_singletons_verdicts_and_call_arguments_are_the_shared_sets(domain, ex):
    state = _built_apart(ex.initial)
    tokens = tokenize(ex.utterance)
    infer(tokens, state, domain, CONFIG)
    memo = state.denotations
    assert memo
    empty = frozen(())
    for (cls, printed), value in memo.items():
        assert type(value) is frozenset
        if len(value) == 1:
            (v,) = value
            assert value is SINGLETONS[v], printed
        elif not value:
            assert value is empty, printed
    calls = [call for _, call in state.call_outcomes]
    assert calls
    for call in calls:
        for arg in call.args:
            if len(arg) == 1:
                (v,) = arg
                assert arg is SINGLETONS[v], call
    verdicts: dict = {}
    for d in generate_candidates(tokens, state, domain, CONFIG):
        args = _arguments(d.children, state, verdicts)
        for arg, lf in zip(args or (), d.lf.args):
            assert arg == evaluate(lf, state) == brute_force_denotation(lf, state), lf.printed
            if len(arg) == 1:
                (v,) = arg
                assert arg is SINGLETONS[v], lf.printed
    for verdict in verdicts.values():
        if verdict is not None and len(verdict) == 1:
            (v,) = verdict
            assert verdict is SINGLETONS[v]


def test_scratch_denotations_of_every_node_kind_share_single_values():
    state = _mixed_case_lighting()
    r1, r2, r3 = sorted(state.entities, key=lambda e: e.id)
    forms = [
        ValueLit(IntVal(2)),
        ReverseJoin("floor", ValueLit(IntVal(2))),
        ReverseJoin("name", ValueLit(TextVal("pantry"))),
        ForwardJoin("floor", ReverseJoin("name", ValueLit(TextVal("pantry")))),
        ForwardJoin("lightMode", ReverseJoin("floor", ValueLit(IntVal(1)))),
        Intersect(ReverseJoin("floor", ValueLit(IntVal(1))),
                  ReverseJoin("name", ValueLit(TextVal("Kitchen")))),
        Intersect(ReverseJoin("floor", ValueLit(IntVal(2))),
                  ReverseJoin("lightMode", ValueLit(SymVal("ON")))),
    ]
    for lf in forms:
        for memo in (None, {}):
            got = evaluate(lf, state, memo)
            assert got == brute_force_denotation(lf, state), lf.printed
            if len(got) == 1:
                (v,) = got
                assert got is SINGLETONS[v], lf.printed


@pytest.mark.parametrize("domain_id", sorted(LARGE_RANGES))
def test_a_large_state_holds_no_more_single_value_sets_than_values(domain_id):
    # a footprint count, not a memory measurement: every single-valued set
    # read from either index of several large states, roots and derived
    domain = get_domain(domain_id)
    states = [domain.generate_state(random.Random(seed), LARGE_RANGES[domain_id])
              for seed in (1, 2)]
    states += _derived(domain, states[0], random.Random(f"footprint:{domain_id}"), 6)
    sets: dict[int, frozenset] = {}
    for state in states:
        for t in state.triples:
            for got in (state.objects(t.subject, t.relation),
                        state.subjects_matching(t.relation, t.object)):
                if len(got) == 1:
                    sets[id(got)] = got
    values = {v for s in sets.values() for v in s}
    assert len(values) > 10
    assert len(sets) <= len(values)
