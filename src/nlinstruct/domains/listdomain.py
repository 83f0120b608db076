"""List editing: integer elements in an ordered list."""

from __future__ import annotations

import random

from ..kb import IntVal, State, Triple
from .base import (
    COLLECTION,
    OBJ_INT,
    SINGLE,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    by_index,
    reindex,
    the,
    typed_entity,
)

DEFAULT_RANGES = {"elements": (3, 8), "values": (1, 20)}


def generate_state(rng: random.Random, ranges: dict) -> State:
    n = rng.randint(*ranges.get("elements", DEFAULT_RANGES["elements"]))
    values = ranges.get("values", DEFAULT_RANGES["values"])
    entities, triples = [], []
    for i in range(1, n + 1):
        e, t = typed_entity(f"el{i}", "Element")
        entities.append(e)
        triples += [
            t,
            Triple(e, "value", IntVal(rng.randint(*values))),
            Triple(e, "index", IntVal(i)),
        ]
    return State("list", entities, triples)


def logic(state: State, call: MethodCall) -> State:
    name = call.method.name
    if name == "remove":
        elements = call.args[0]
        new = state.without_entities(elements)
        return reindex(new, by_index(state, new.entities))
    element = the(call.args[0])
    others = [e for e in by_index(state, state.entities) if e != element]
    order = [element] + others if name == "moveToBeginning" else others + [element]
    return reindex(state, order)


def make_domain() -> Domain:
    return Domain(
        id="list",
        entity_types=("Element",),
        relations={
            "value": RelationSpec("value", OBJ_INT, phrases=("number",)),
            "index": RelationSpec("index", OBJ_INT, phrases=("position", "spot", "first", "last")),
        },
        methods=(
            InterfaceMethod(
                "remove", (ParameterSpec(COLLECTION, etype="Element"),), ("remove", "delete")
            ),
            InterfaceMethod(
                "moveToBeginning",
                (ParameterSpec(SINGLE, etype="Element"),),
                ("beginning", "front", "start"),
            ),
            InterfaceMethod(
                "moveToEnd", (ParameterSpec(SINGLE, etype="Element"),), ("end", "back")
            ),
        ),
        enum_symbols=(),
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
    )
