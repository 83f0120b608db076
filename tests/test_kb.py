from __future__ import annotations

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

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


_VALUES = {
    "entity": lambda: Entity("room1", "Room"),
    "int": lambda: IntVal(2),
    "text": lambda: TextVal("bedroom"),
    "sym": lambda: SymVal("ON"),
}


@pytest.mark.parametrize("make", _VALUES.values(), ids=_VALUES)
def test_equal_fields_give_one_immutable_object_that_copies_as_itself(make):
    value = make()
    assert make() is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_each_value_class_interns_apart():
    assert TextVal("ON") != SymVal("ON")
    assert IntVal(1) != TextVal("1")
    assert Entity("x", "Room") != Entity("x", "Hall")
    assert Entity(id="x", etype="Room") is Entity("x", "Room")
    assert IntVal(True) is IntVal(1)
    assert len({TextVal("ON"), SymVal("ON"), TextVal("ON"), IntVal(1), TextVal("1")}) == 4


def test_triples_are_tuples_of_interned_values():
    room = Entity("room1", "Room")
    triple = Triple(room, "floor", IntVal(2))
    assert triple == Triple(subject=room, relation="floor", object=IntVal(2))
    assert hash(triple) == hash(Triple(room, "floor", IntVal(2)))
    assert triple != Triple(room, "floor", TextVal("2"))
    assert repr(triple) == "(room1, floor, IntVal(2))"
    with pytest.raises(AttributeError):
        triple.object = IntVal(3)
    for back in (copy.copy(triple), copy.deepcopy(triple), pickle.loads(pickle.dumps(triple))):
        assert back == triple
        assert back.subject is room and back.object is IntVal(2)


def test_a_copied_state_shares_the_interned_values(paper_state):
    for back in (copy.deepcopy(paper_state), pickle.loads(pickle.dumps(paper_state))):
        assert back == paper_state
        assert {id(t.object) for t in back.triples} == {id(t.object) for t in paper_state.triples}


# Parses one template example per domain after training on them, and prints
# every candidate's printed form, repr(score) and denotation (as sorted
# JSON). argv[1] says in which order the intern tables are filled first:
# "forward" or "reverse" (integers, then the domains' states).
_PARSE_ONE_PER_DOMAIN = r"""
import json, sys
from nlinstruct.kb import IntVal
from nlinstruct.dataio import state_to_json
from nlinstruct.domains import get_domain
from nlinstruct.parser import ParserConfig, Pipeline
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus
from nlinstruct.training import TrainConfig, adagrad

step = 1 if sys.argv[1] == "forward" else -1
for v in range(-100, 1000)[::step]:
    IntVal(v)
examples = {d: build_domain_corpus(get_domain(d), 1, seed=3)[0][0] for d in CORPUS_DOMAINS[::step]}
examples = [examples[d] for d in CORPUS_DOMAINS]
pipeline = Pipeline(get_domain, ParserConfig(beam_size=20, max_rules=9))
weights = adagrad(examples, {}, TrainConfig(iterations=1, seed=7), pipeline)
print(json.dumps({
    "int_set_order": [v.value for v in frozenset(map(IntVal, range(64)))],
    "weights": sorted((k, repr(w)) for k, w in weights.items()),
    "parses": [[(c.deriv.lf.printed, repr(c.deriv.score), state_to_json(c.denotation))
                for c in pipeline.analyze(ex, weights)] for ex in examples],
}, sort_keys=True))
"""


def test_set_iteration_order_does_not_reach_parses():
    # a value hashes by its address, so a set of values iterates in an order
    # that changes with allocation order; str hashes change with the seed
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for order, hash_seed in (("forward", "0"), ("reverse", "1")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _PARSE_ONE_PER_DOMAIN, order], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(done.stdout))
    forward, reverse = runs
    # the two runs do iterate sets differently
    assert forward["int_set_order"] != reverse["int_set_order"]
    assert len(forward["parses"]) == 7 and all(forward["parses"])
    assert forward["weights"] == reverse["weights"]
    assert forward["parses"] == reverse["parses"]
