"""Container management: shipping containers in indexed terminals."""

from __future__ import annotations

import random

from ..kb import IntVal, State, SymVal, Triple
from .base import (
    COLLECTION,
    OBJ_INT,
    OBJ_SYM,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    by_index,
    reindex,
    set_value,
    typed_entity,
)

DEFAULT_RANGES = {"containers": (3, 8), "length": (2, 40)}


def generate_state(rng: random.Random, ranges: dict) -> State:
    n = rng.randint(*ranges.get("containers", DEFAULT_RANGES["containers"]))
    length = ranges.get("length", DEFAULT_RANGES["length"])
    entities, triples = [], []
    for i in range(1, n + 1):
        e, t = typed_entity(f"c{i}", "ShippingContainer")
        entities.append(e)
        triples += [
            t,
            Triple(e, "length", IntVal(rng.randint(*length))),
            Triple(e, "contentState", SymVal(rng.choice(("LOADED", "UNLOADED")))),
            Triple(e, "index", IntVal(i)),
        ]
    return State("container", entities, triples)


def logic(state: State, call: MethodCall) -> State:
    containers = call.args[0]
    name = call.method.name
    if name == "loadContainers":
        return set_value(state, containers, "contentState", SymVal("LOADED"))
    if name == "unloadContainers":
        return set_value(state, containers, "contentState", SymVal("UNLOADED"))
    # removeContainers: drop and close the index gaps
    new = state.without_entities(containers)
    return reindex(new, by_index(state, new.entities), old=state)


def make_domain() -> Domain:
    containers = ParameterSpec(COLLECTION, etype="ShippingContainer")
    return Domain(
        id="container",
        entity_types=("ShippingContainer",),
        relations={
            "length": RelationSpec("length", OBJ_INT, phrases=("long", "longest", "shortest")),
            "contentState": RelationSpec(
                "contentState", OBJ_SYM, phrases=("loaded", "unloaded", "full", "empty")
            ),
            "index": RelationSpec("index", OBJ_INT, phrases=("terminal", "position", "first", "last")),
        },
        methods=(
            InterfaceMethod("loadContainers", (containers,), ("load", "fill")),
            InterfaceMethod("unloadContainers", (containers,), ("unload", "empty")),
            InterfaceMethod("removeContainers", (containers,), ("remove", "discard")),
        ),
        enum_symbols=("LOADED", "UNLOADED"),
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
    )
