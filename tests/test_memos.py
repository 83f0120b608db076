"""The per-state memos and the cheap derived-state checks against
from-scratch references.

A state keeps the set denotations of the forms evaluated on it and the
logic filter's outcome of each call, so a state parsed again reuses them.
These tests hold the memoized path to the from-scratch executor and to the
brute-force oracle, across parses and weights, and hold the derivation
helpers, which check only what they add, to the full ``State(...)`` check.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from nlinstruct.domains import builtin_domains, get_domain
from nlinstruct.domains.base import invoke, typed_entity
from nlinstruct.errors import DomainLogicError, ExecutionError, NlinstructError
from nlinstruct.features import tokenize
from nlinstruct.kb import Entity, IntVal, State, SymVal, TextVal, Triple
from nlinstruct.logic import MethodRef, ValueLit, evaluate, execute_to_call, print_value
from nlinstruct.parser import NUMBER_WORDS, ORDINAL_WORDS, ParserConfig, generate_candidates, infer
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus

from conftest import lighting_paper_state
from oracles import brute_force_denotation

#: About three times each domain's default entity counts, as the
#: benchmark's large parse workload uses.
LARGE_RANGES = {
    "calendar": {"events": (8, 12)},
    "container": {"containers": (12, 20)},
    "file": {"directories": (4, 5), "files": (12, 18)},
    "lighting": {"floors": (3, 5), "rooms_per_floor": (4, 6)},
    "list": {"elements": (14, 20)},
    "messenger": {"users": (6, 8), "groups": (6, 10)},
    "workforce": {"employees": (7, 8)},
}

CONFIG = ParserConfig(20, 9)


def _copy(state: State) -> State:
    """An equal state object with empty memos and no indexes."""
    return State(state.domain_id, state.entities, state.triples)


def _large_examples():
    for domain_id in CORPUS_DOMAINS:
        domain = get_domain(domain_id)
        for ex, _ in build_domain_corpus(domain, 2, seed=17, ranges=LARGE_RANGES[domain_id]):
            yield domain, ex


LARGE = list(_large_examples())


def _assembled(lf, state, memo=None):
    """A root's call arguments, or the assembly error's message."""
    try:
        return execute_to_call(lf, state, memo).args
    except ExecutionError as exc:
        return str(exc)


@pytest.mark.parametrize("domain, ex", LARGE, ids=[ex.id for _, ex in LARGE])
def test_memoized_call_arguments_equal_the_scratch_executor_and_the_oracle(domain, ex):
    state = ex.initial
    tokens = tokenize(ex.utterance)
    infer(tokens, state, domain, CONFIG)  # fills the state's memos
    assert state.denotations
    roots = generate_candidates(tokens, state, domain, CONFIG)
    assert roots
    for d in roots:
        memoized = _assembled(d.lf, state, state.denotations)
        assert memoized == _assembled(d.lf, state), d.lf.printed
        assert memoized == _assembled(d.lf, _copy(state)), d.lf.printed
        for arg in d.lf.args:
            assert evaluate(arg, state, state.denotations) == brute_force_denotation(arg, state), \
                arg.printed


@pytest.mark.parametrize("domain, ex", LARGE[::2], ids=[ex.id for _, ex in LARGE[::2]])
def test_a_state_parsed_again_under_new_weights_gives_what_a_fresh_state_gives(domain, ex):
    state = ex.initial
    tokens = tokenize(ex.utterance)
    first = infer(tokens, state, domain, CONFIG)
    assert first
    # weights that favour the last candidate's features and disfavour the
    # first's, so the second parse keeps other forms in its beams
    weights = {k: 0.7 for k in first[-1].features}
    for k in first[0].features:
        weights[k] = weights.get(k, 0.0) - 1.3
    for w in ({}, weights):
        again = infer(tokens, state, domain, CONFIG, w)
        fresh = infer(tokens, _copy(state), domain, CONFIG, w)
        assert [(c.deriv.lf.printed, repr(c.deriv.score), c.denotation) for c in again] == \
            [(c.deriv.lf.printed, repr(c.deriv.score), c.denotation) for c in fresh]
        for c in again:
            assert c.denotation == invoke(domain, ex.initial, execute_to_call(c.deriv.lf, _copy(state)))
    unfiltered = infer(tokens, state, domain, CONFIG, weights, use_filter=False)
    assert [(c.deriv.lf.printed, c.denotation) for c in unfiltered] == \
        [(c.deriv.lf.printed, c.denotation)
         for c in infer(tokens, _copy(state), domain, CONFIG, weights, use_filter=False)]


def _scratch_outcome(domain, state, lf):
    """What the filter must make of a root: None when its call fails to
    assemble, raises or changes nothing, else the resulting state, all
    computed from scratch on a memo-less copy of the state."""
    state = _copy(state)
    try:
        result = invoke(domain, state, execute_to_call(lf, state))
    except (ExecutionError, DomainLogicError):
        return None
    return None if result == state else result


def _one_example_per_domain():
    yield get_domain("lighting"), "turn off the light in the bedroom on the second floor", \
        lighting_paper_state()
    for domain_id in CORPUS_DOMAINS:
        domain = get_domain(domain_id)
        ex, _ = build_domain_corpus(domain, 1, seed=23)[0]
        yield domain, ex.utterance, ex.initial


def test_argument_verdicts_give_the_scratch_outcome_of_every_root():
    """The filter judges each (argument, method, parameter position) once
    per parse; every root must still get the outcome of its own call.
    In the list, file and workforce domains one set reaches single and
    collection parameters, of one method (positions) and of several
    (methods), which judge it differently."""
    kept = rejected = 0
    for domain, utterance, state in _one_example_per_domain():
        tokens = tokenize(utterance)
        roots = generate_candidates(tokens, state, domain, CONFIG)
        cands = infer(tokens, state, domain, CONFIG, use_filter=False)
        assert [c.deriv.lf.printed for c in cands] == [d.lf.printed for d in roots]
        for c in cands:
            want = _scratch_outcome(domain, state, c.deriv.lf)
            assert c.denotation == want, (domain.id, c.deriv.lf.printed)
            kept += want is not None
            rejected += want is None
    assert kept > 50 and rejected > 50, (kept, rejected)


def test_memo_entries_belong_to_their_own_state():
    """Two states of one domain evaluate the same forms to different sets;
    each memo must hold its own state's sets."""
    domain = get_domain("list")
    (a, _), (b, _) = build_domain_corpus(domain, 2, seed=3, ranges=LARGE_RANGES["list"])
    tokens = tokenize(a.utterance)
    infer(tokens, a.initial, domain, CONFIG)
    infer(tokens, b.initial, domain, CONFIG)
    for d in generate_candidates(tokens, b.initial, domain, CONFIG):
        assert _assembled(d.lf, b.initial, b.initial.denotations) == _assembled(d.lf, b.initial)


def test_memo_keys_include_the_node_class():
    """A bare method prints like the text literal of its name, but only the
    literal denotes a set."""
    domain = get_domain("list")
    method = domain.methods[0]
    literal = ValueLit(TextVal(method.name))
    bare = MethodRef(method)
    assert literal.printed == bare.printed
    state = domain.generate_state(random.Random(1), domain.default_ranges)
    memo = state.denotations
    assert evaluate(literal, state, memo) == {TextVal(method.name)}
    with pytest.raises(ExecutionError):
        evaluate(bare, state)
    with pytest.raises(ExecutionError):
        evaluate(bare, state, memo)


def test_call_outcomes_are_kept_per_application_logic():
    """A second domain object with the same id but other application logic
    must not read the first one's outcomes."""
    domain = get_domain("lighting")
    ex, _ = build_domain_corpus(domain, 1, seed=4)[0]
    tokens = tokenize(ex.utterance)
    kept = infer(tokens, ex.initial, domain, CONFIG)
    assert kept

    def refuse(state, call):
        return state  # changes nothing: every call is filtered out

    inert = replace(domain, logic=refuse)
    assert infer(tokens, ex.initial, inert, CONFIG) == []
    assert [c.deriv.lf.printed for c in infer(tokens, ex.initial, domain, CONFIG)] == \
        [c.deriv.lf.printed for c in kept]


def test_a_kept_outcome_is_rebuilt_equal_once_its_result_is_gone():
    domain = get_domain("container")
    ex, _ = build_domain_corpus(domain, 1, seed=8, ranges=LARGE_RANGES["container"])[0]
    tokens = tokenize(ex.utterance)
    first = [(c.deriv.lf.printed, c.denotation) for c in infer(tokens, ex.initial, domain, CONFIG)]
    assert first
    states = [s for _, s in first]
    del first[:]
    again = infer(tokens, ex.initial, domain, CONFIG)
    # while the earlier results are alive the memo hands out those objects
    assert all(any(c.denotation is s for s in states) for c in again)
    expected = [(c.deriv.lf.printed, _copy(c.denotation)) for c in again]
    del again, states
    rebuilt = infer(tokens, ex.initial, domain, CONFIG)
    assert [(c.deriv.lf.printed, c.denotation) for c in rebuilt] == expected


# ---------------------------------------------------------------------------
# Printing: the memo key's assumption
# ---------------------------------------------------------------------------


def _leaf_values(domain) -> set:
    """Every value a chart leaf can hold in this domain: its enum symbols,
    integers from number and ordinal words or digits, and the text values
    of states generated at default and large sizes."""
    values = {SymVal(s) for s in domain.enum_symbols}
    values |= {IntVal(n) for n in range(0, 100)}
    values |= {IntVal(n) for n in NUMBER_WORDS.values()} | {IntVal(n) for n in ORDINAL_WORDS.values()}
    for ranges in (domain.default_ranges, LARGE_RANGES.get(domain.id, domain.default_ranges)):
        for seed in range(20):
            state = domain.generate_state(random.Random(seed), ranges)
            values |= {t.object for t in state.triples if not isinstance(t.object, Entity)}
    return values


@pytest.mark.parametrize("domain_id", [d.id for d in builtin_domains()])
def test_leaf_values_print_distinctly_across_kinds(domain_id):
    """Set denotations are memoized under (class, printed form), which is
    sound only if two distinct leaf values never print alike: no lowercase
    enum symbol may print like a text literal, no text like an integer."""
    printed: dict[str, object] = {}
    for v in _leaf_values(get_domain(domain_id)):
        other = printed.setdefault(print_value(v), v)
        assert other == v, f"{other!r} and {v!r} both print as {print_value(v)!r}"


@pytest.mark.parametrize("read, kind", [
    (lambda s, e: s.objects(e, "floor"), "objects"),
    (lambda s, e: s.subjects("floor", IntVal(2)), "subjects"),
    (lambda s, e: s.subjects_matching("name", TextVal("Bedroom")), "folded"),
    (lambda s, e: s.pairs("floor"), "pairs"),
])
def test_a_read_builds_only_its_own_index(monkeypatch, paper_state, read, kind):
    built = []
    build = State._build_indexes

    def recording(self, k):
        built.append(k)
        return build(self, k)

    monkeypatch.setattr(State, "_build_indexes", recording)
    state = _copy(paper_state)
    read(state, state.entity("room1"))
    read(state, state.entity("room1"))
    assert built == [kind]
    slots = {"objects": "_obj_idx", "subjects": "_subj_idx", "folded": "_fold_idx",
             "pairs": "_pair_idx"}
    for k, slot in slots.items():
        assert (getattr(state, slot) is not None) == (k == kind)


# ---------------------------------------------------------------------------
# Derived states check only what they add
# ---------------------------------------------------------------------------


def _rooms(n: int):
    entities, triples = [], []
    for i in range(1, n + 1):
        e, t = typed_entity(f"room{i}", "Room")
        entities.append(e)
        triples += [t, Triple(e, "floor", IntVal(i % 3)), Triple(e, "name", TextVal(f"r{i}"))]
    return State("lighting", entities, triples), entities


def _message(build) -> str:
    with pytest.raises(NlinstructError) as info:
        build()
    return str(info.value)


def test_replace_triples_with_foreign_subjects_raises_the_full_check_message():
    state, rooms = _rooms(6)
    strangers = [Entity(f"ghost{i}", "Room") for i in range(5)]
    remove = [Triple(rooms[0], "floor", IntVal(1))]
    add = [Triple(g, "floor", IntVal(2)) for g in strangers] + [Triple(rooms[1], "floor", IntVal(7))]
    full = _message(lambda: State(state.domain_id, state.entities,
                                  (state.triples - frozenset(remove)) | frozenset(add)))
    assert "not among state entities" in full
    assert _message(lambda: state.replace_triples(remove, add)) == full


def test_with_entity_raises_the_full_check_message():
    state, rooms = _rooms(6)
    twin = Entity("room3", "Light")  # an id the state already uses
    ghost = Entity("ghost", "Room")
    cases = [
        (twin, [Triple(twin, "name", TextVal("twin"))]),
        (Entity("room9", "Room"), [Triple(ghost, "name", TextVal("g"))]),
        (twin, [Triple(ghost, "name", TextVal("g"))]),  # both faults: triples come first
        (twin, []),
    ]
    for entity, triples in cases:
        full = _message(lambda: State(state.domain_id, state.entities | {entity},
                                      state.triples | frozenset(triples)))
        assert _message(lambda: state.with_entity(entity, triples)) == full


def test_derived_states_equal_states_built_from_scratch():
    state, rooms = _rooms(8)
    state.objects(rooms[0], "floor")  # derived states must not inherit indexes or memos
    remove = [Triple(rooms[0], "floor", IntVal(1)), Triple(rooms[5], "name", TextVal("nope"))]
    add = [Triple(rooms[2], "floor", IntVal(9)), Triple(rooms[0], "floor", IntVal(1))]
    replaced = state.replace_triples(remove, add)
    assert replaced == State(state.domain_id, state.entities,
                             (state.triples - frozenset(remove)) | frozenset(add))

    gone = {rooms[1], rooms[4], Entity("ghost", "Room")}
    linked = state.replace_triples([], [Triple(rooms[0], "next", rooms[1]),
                                        Triple(rooms[2], "next", rooms[3])])
    dropped = linked.without_entities(gone)
    assert dropped == State(
        state.domain_id, linked.entities - gone,
        [t for t in linked.triples if t.subject not in gone and t.object not in gone])
    assert Triple(rooms[2], "next", rooms[3]) in dropped.triples
    assert not any(t.subject in gone or t.object in gone for t in dropped.triples)

    e, t = typed_entity("room99", "Room")
    grown = state.with_entity(e, [t, Triple(e, "floor", IntVal(4))])
    assert grown == State(state.domain_id, state.entities | {e},
                          state.triples | {t, Triple(e, "floor", IntVal(4))})
    assert state.with_entity(rooms[0], []) == state  # an entity already there adds nothing
    for derived in (replaced, dropped, grown):
        assert derived._obj_idx is None and derived._denotations is None


def test_changes_round_trip_to_an_equal_state():
    state, rooms = _rooms(6)
    e, t = typed_entity("room7", "Room")
    for other in (
        state.replace_triples([Triple(rooms[0], "floor", IntVal(1))],
                              [Triple(rooms[0], "floor", IntVal(5))]),
        state.without_entities(rooms[2:4]),
        state.with_entity(e, [t]),
    ):
        changes = state.changes_to(other)
        assert state.with_changes(changes) == other
        assert sum(map(len, changes)) < len(other.triples)
