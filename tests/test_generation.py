from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from nlinstruct.domains import (
    ARGUMENT_ATTEMPTS,
    builtin_domains,
    generate_state_pair,
    get_domain,
    invoke,
)
from nlinstruct import dataio, synthetic
from nlinstruct.domains import generate
from nlinstruct.errors import GenerationError
from nlinstruct.kb import Entity, IntVal, State, SymVal, TextVal, Triple
from nlinstruct.domains.base import typed_entity
from nlinstruct.synthetic import CORPUS_DOMAINS, build_domain_corpus

from test_memos import LARGE_RANGES


def test_lighting_initial_state_invariants():
    domain = get_domain("lighting")
    state = domain.generate_state(random.Random(42), domain.default_ranges)
    rooms = state.entities_of_type("Room")
    assert rooms == state.entities
    floors = set()
    for r in rooms:
        (floor,) = state.objects(r, "floor")
        floors.add(floor.value)
        (mode,) = state.objects(r, "lightMode")
        assert mode.name in ("ON", "OFF")
        assert len(state.objects(r, "name")) == 1
    assert floors and min(floors) >= 1 and max(floors) <= 3


def test_list_indexes_are_contiguous_from_one():
    domain = get_domain("list")
    for seed in range(5):
        state = domain.generate_state(random.Random(seed), domain.default_ranges)
        indexes = sorted(
            next(iter(state.objects(e, "index"))).value for e in state.entities
        )
        assert indexes == list(range(1, len(state.entities) + 1))
        assert 3 <= len(state.entities) <= 8


def test_degenerate_range_pins_entity_count():
    domain = get_domain("list")
    state = domain.generate_state(random.Random(0), {"elements": (4, 4), "values": (1, 9)})
    assert len(state.entities) == 4


def test_generated_pair_satisfies_contract():
    rng = random.Random(99)
    domain = get_domain("lighting")
    state, call, desired = generate_state_pair(domain, domain.method("turnLightOn"), rng)
    assert state != desired
    assert invoke(domain, state, call) == desired


def test_all_on_initial_state_burns_argument_budget_then_restarts():
    domain = get_domain("lighting")
    calls = {"n": 0}

    def forced(rng, ranges):
        calls["n"] += 1
        mode = "ON" if calls["n"] == 1 else "OFF"
        r, t = typed_entity("room1", "Room")
        return State(
            "lighting",
            [r],
            [t, Triple(r, "name", TextVal("bedroom")), Triple(r, "floor", IntVal(1)),
             Triple(r, "lightMode", SymVal(mode))],
        )

    rng = random.Random(5)
    forcing = replace(domain, generate_state=forced)
    state, call, desired = generate_state_pair(forcing, forcing.method("turnLightOn"), rng)
    # first state cannot change: all ARGUMENT_ATTEMPTS draws failed
    assert calls["n"] == 2
    (mode,) = state.objects(Entity("room1", "Room"), "lightMode")
    assert mode.name == "OFF"
    assert ARGUMENT_ATTEMPTS == 1000


def test_generation_gives_up_after_state_restart_cap(monkeypatch):
    domain = get_domain("lighting")
    calls = {"n": 0}

    def hopeless(rng, ranges):
        calls["n"] += 1
        r, t = typed_entity("room1", "Room")
        return State(
            "lighting",
            [r],
            [t, Triple(r, "name", TextVal("bedroom")), Triple(r, "floor", IntVal(1)),
             Triple(r, "lightMode", SymVal("ON"))],
        )

    monkeypatch.setattr(generate, "STATE_RESTARTS", 3)
    hopeless_domain = replace(domain, generate_state=hopeless)
    with pytest.raises(GenerationError, match="after 3 initial states"):
        generate_state_pair(hopeless_domain, hopeless_domain.method("turnLightOn"),
                            random.Random(1))
    assert calls["n"] == 3


def test_pairs_change_state_across_every_builtin_method():
    rng = random.Random(7)
    for domain in builtin_domains():
        for method in domain.methods:
            state, call, desired = generate_state_pair(domain, method, rng)
            assert state != desired
            assert invoke(domain, state, call) == desired


def test_generation_is_deterministic_per_seed():
    domain = get_domain("container")
    method = domain.method("removeContainers")
    a = generate_state_pair(domain, method, random.Random(123))
    b = generate_state_pair(domain, method, random.Random(123))
    assert a[0] == b[0] and a[2] == b[2] and a[1] == b[1]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()[:16]


def test_template_corpus_bytes_are_pinned():
    # every template corpus the tests and the benchmark build stays the
    # same, example for example, at default and large ranges
    def chunks():
        for domain_id in CORPUS_DOMAINS:
            for seed in (0, 3, 4, 5, 7, 17, 23):
                for ranges in (None, LARGE_RANGES[domain_id]):
                    for ex, lf in build_domain_corpus(get_domain(domain_id), 6, seed, ranges):
                        yield json.dumps(dataio.example_to_json(ex), sort_keys=True)
                        yield lf.printed

    assert _digest(chunks()) == "fc7eb9e85c30be25"


def test_state_pair_bytes_are_pinned(tmp_path):
    # one pair per built-in method from one stream, written as `generate`
    # writes them: the dataset file and its gold sidecar
    rng = random.Random(7)
    examples, gold = [], []
    for domain in builtin_domains():
        for method in domain.methods:
            state, call, desired = generate_state_pair(domain, method, rng)
            ex_id = f"{domain.id}-{method.name}"
            examples.append(dataio.Example(ex_id, domain.id, state, "", desired))
            gold.append((ex_id, call))
    dataio.write_dataset(tmp_path / "pairs.jsonl", examples)
    dataio.write_gold_sidecar(tmp_path / "gold.jsonl", gold)
    files = (tmp_path / "pairs.jsonl", tmp_path / "gold.jsonl")
    assert _digest(path.read_text() for path in files) == "15a37a983daeda93"


def test_a_template_that_never_instantiates_gives_up_after_the_state_restart_cap(monkeypatch):
    calls = {"n": 0}

    def never(domain, state, rng):
        calls["n"] += 1
        return None

    monkeypatch.setattr(generate, "STATE_RESTARTS", 3)
    monkeypatch.setitem(synthetic.TEMPLATES, "lighting", (never,))
    with pytest.raises(GenerationError, match="lighting template never: .* after 3 initial states"):
        build_domain_corpus(get_domain("lighting"), 2, seed=0)
    assert calls["n"] == 3
