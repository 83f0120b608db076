from __future__ import annotations

import random

import pytest

from nlinstruct.errors import NlinstructError
from nlinstruct.kb import (
    Entity,
    IntVal,
    State,
    SymVal,
    TextVal,
    Triple,
)
from nlinstruct.domains.base import typed_entity


def _two_room_state():
    r1, t1 = typed_entity("room1", "Room")
    r2, t2 = typed_entity("room2", "Room")
    triples = [
        t1,
        t2,
        Triple(r1, "name", TextVal("bedroom")),
        Triple(r1, "floor", IntVal(2)),
        Triple(r1, "lightMode", SymVal("ON")),
        Triple(r2, "name", TextVal("kitchen")),
        Triple(r2, "floor", IntVal(2)),
        Triple(r2, "lightMode", SymVal("ON")),
    ]
    return State("lighting", [r1, r2], triples), r1, r2


def test_query_objects_floor(paper_state):
    room1 = Entity("room1", "Room")
    assert paper_state.objects(room1, "floor") == {IntVal(2)}


def test_query_objects_empty_state():
    empty = State("lighting", [], [])
    assert empty.objects(Entity("room1", "Room"), "floor") == frozenset()


def test_query_objects_second_room():
    state, _, r2 = _two_room_state()
    assert state.objects(r2, "floor") == {IntVal(2)}


def test_query_subjects_floor(paper_state):
    assert paper_state.subjects("floor", IntVal(2)) == {Entity("room1", "Room")}


def test_query_subjects_no_match_all_on():
    state, _, _ = _two_room_state()
    assert state.subjects("lightMode", SymVal("OFF")) == frozenset()


def test_query_subjects_shared_length():
    c1, t1 = typed_entity("c1", "ShippingContainer")
    c2, t2 = typed_entity("c2", "ShippingContainer")
    state = State(
        "container",
        [c1, c2],
        [t1, t2, Triple(c1, "length", IntVal(3)), Triple(c2, "length", IntVal(3))],
    )
    assert state.subjects("length", IntVal(3)) == {c1, c2}


def test_states_equal_reflexive(paper_state):
    assert paper_state == paper_state


def test_states_equal_one_triple_differs(paper_state):
    room1 = Entity("room1", "Room")
    other = paper_state.replace_triples(
        [Triple(room1, "lightMode", SymVal("ON"))],
        [Triple(room1, "lightMode", SymVal("OFF"))],
    )
    assert paper_state != other


def test_states_equal_is_order_insensitive():
    state, r1, r2 = _two_room_state()
    shuffled = State("lighting", [r2, r1], reversed(sorted(state.triples, key=repr)))
    assert state == shuffled


def test_duplicate_entity_ids_rejected():
    with pytest.raises(NlinstructError):
        State("lighting", [Entity("x", "Room"), Entity("x", "Hall")], [])


def test_triple_subject_must_be_declared():
    stray, t = typed_entity("ghost", "Room")
    with pytest.raises(NlinstructError):
        State("lighting", [], [t])


def test_duplicate_triples_are_idempotent(paper_state):
    room1 = Entity("room1", "Room")
    again = State(
        "lighting",
        paper_state.entities,
        list(paper_state.triples) + [Triple(room1, "floor", IntVal(2))],
    )
    assert paper_state == again


def _random_state(rng: random.Random) -> State:
    from nlinstruct.domains import get_domain

    domain = get_domain(rng.choice(("lighting", "list", "container")))
    return domain.generate_state(rng, domain.default_ranges)


def test_states_equal_is_an_equivalence_relation():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_state(rng)
        b = State(a.domain_id, a.entities, a.triples)
        c = State(a.domain_id, sorted(a.entities, key=lambda e: e.id), sorted(a.triples, key=repr))
        assert a == a
        assert (a == b) == (b == a)
        if a == b and b == c:
            assert a == c


def test_query_directions_are_mutually_consistent():
    rng = random.Random(5)
    for _ in range(25):
        state = _random_state(rng)
        relations = {t.relation for t in state.triples}
        for e in state.entities:
            for rel in relations:
                for o in state.objects(e, rel):
                    assert e in state.subjects(rel, o)
        for t in state.triples:
            assert t.object in state.objects(t.subject, t.relation)


def test_serialization_round_trip_preserves_state_equality():
    from nlinstruct.dataio import state_from_json, state_to_json

    rng = random.Random(23)
    for _ in range(25):
        state = _random_state(rng)
        back = state_from_json(state.domain_id, state_to_json(state))
        assert state == back
