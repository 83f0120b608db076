from __future__ import annotations

import random

import pytest

from nlinstruct.domains.base import (
    COLLECTION,
    OBJ_INT,
    OBJ_TEXT,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    typed_entity,
)
from nlinstruct.kb import IntVal, State, SymVal, TextVal, Triple
from nlinstruct.logic import Call, LogicalForm, ReverseJoin, ValueLit


def join(relation: str, child) -> ReverseJoin:
    """``R[relation].child``, where an int child is an ``IntVal`` literal
    and a str child a ``SymVal`` (upper case) or ``TextVal`` literal."""
    if isinstance(child, int):
        child = ValueLit(IntVal(child))
    elif isinstance(child, str):
        child = ValueLit(SymVal(child) if child.isupper() else TextVal(child))
    return ReverseJoin(relation, child)


def root(domain: Domain, method: str, *args: LogicalForm) -> Call:
    """The root form ``method(args)`` of one of the domain's methods."""
    return Call(domain.method(method), args)


def make_toy_domain(domain_id: str = "toy") -> Domain:
    """Two relations, one type, one unary method: small enough for
    exhaustive enumeration yet exercising anchors, joins and superlatives."""

    def generate(rng: random.Random, ranges: dict) -> State:
        n = rng.randint(*ranges.get("things", (2, 3)))
        entities, triples = [], []
        for i in range(1, n + 1):
            e, t = typed_entity(f"t{i}", "Thing")
            entities.append(e)
            triples += [
                t,
                Triple(e, "tag", TextVal(rng.choice(("alpha", "beta")))),
                Triple(e, "rank", IntVal(rng.randint(1, 9))),
            ]
        return State(domain_id, entities, triples)

    def logic(state: State, call: MethodCall) -> State:
        # zap: flips each target's tag to "zapped" (idempotent per entity)
        remove, add = [], []
        for e in sorted(call.args[0], key=lambda x: x.id):
            for o in state.objects(e, "tag"):
                if o != TextVal("zapped"):
                    remove.append(Triple(e, "tag", o))
                    add.append(Triple(e, "tag", TextVal("zapped")))
        return state.replace_triples(remove, add)

    return Domain(
        id=domain_id,
        entity_types=("Thing",),
        relations={
            "tag": RelationSpec("tag", OBJ_TEXT),
            "rank": RelationSpec("rank", OBJ_INT),
        },
        methods=(
            InterfaceMethod("zap", (ParameterSpec(COLLECTION, etype="Thing"),), ("zap",)),
        ),
        enum_symbols=(),
        logic=logic,
        generate_state=generate,
        default_ranges={"things": (2, 3)},
    )


@pytest.fixture
def toy_domain() -> Domain:
    return make_toy_domain()


def make_toy_world(domain_ids=("toya", "toyb"), per_domain=12, seed=0):
    """Toy domains with hand-built gold examples plus a ready pipeline."""
    from nlinstruct.domains.base import Example
    from nlinstruct.logic import execute_to_call
    from nlinstruct.parser import ParserConfig, Pipeline

    domains = {}
    examples = {}
    for did in domain_ids:
        domain = make_toy_domain(did)
        domains[did] = domain
        rng = random.Random(f"{seed}:{did}")
        out = []
        for i in range(per_domain):
            state = domain.generate_state(rng, {"things": (2, 3)})
            tags = sorted({t.object.value for t in state.triples if t.relation == "tag"})
            tag = rng.choice(tags)
            call_lf = Call(domain.method("zap"), (ReverseJoin("tag", ValueLit(TextVal(tag))),))
            desired = domain.logic(state, execute_to_call(call_lf, state))
            if desired == state:
                continue
            out.append(Example(f"{did}-{i}", did, state, f"zap {tag}", desired))
        examples[did] = out
    pipeline = Pipeline(lambda did: domains[did], ParserConfig(beam_size=20, max_rules=7))
    return domains, examples, pipeline


def leave_one_out(examples_by_domain: dict) -> list:
    """Zero-shot tuning folds: (every other domain's examples by domain,
    the held-out domain's examples), one per domain in order."""
    return [({d: examples for d, examples in examples_by_domain.items() if d != held}, held_out)
            for held, held_out in examples_by_domain.items()]


def lighting_paper_state() -> State:
    """The one-room snapshot: (room1, name, bedroom), (room1, floor, 2),
    (room1, lightMode, ON)."""
    e, t = typed_entity("room1", "Room")
    return State(
        "lighting",
        [e],
        [
            t,
            Triple(e, "name", TextVal("bedroom")),
            Triple(e, "floor", IntVal(2)),
            Triple(e, "lightMode", SymVal("ON")),
        ],
    )


@pytest.fixture
def paper_state() -> State:
    return lighting_paper_state()
