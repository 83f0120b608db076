"""Lighting control: rooms in a house whose lights turn on and off."""

from __future__ import annotations

import random

from ..kb import IntVal, State, SymVal, TextVal, Triple
from .base import (
    COLLECTION,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    set_value,
    typed_entity,
)

ROOM_NAMES = (
    "bedroom", "kitchen", "bathroom", "office",
    "hallway", "living room", "attic", "nursery",
)

DEFAULT_RANGES = {"floors": (1, 3), "rooms_per_floor": (1, 4)}


def generate_state(rng: random.Random, ranges: dict) -> State:
    floors = rng.randint(*ranges.get("floors", DEFAULT_RANGES["floors"]))
    per_floor = ranges.get("rooms_per_floor", DEFAULT_RANGES["rooms_per_floor"])
    entities, triples = [], []
    i = 0
    for f in range(1, floors + 1):
        for _ in range(rng.randint(*per_floor)):
            i += 1
            e, t = typed_entity(f"room{i}", "Room")
            entities.append(e)
            triples += [
                t,
                Triple(e, "name", TextVal(rng.choice(ROOM_NAMES))),
                Triple(e, "floor", IntVal(f)),
                Triple(e, "lightMode", SymVal(rng.choice(("ON", "OFF")))),
            ]
    return State("lighting", entities, triples)


def logic(state: State, call: MethodCall) -> State:
    mode = "ON" if call.method.name == "turnLightOn" else "OFF"
    return set_value(state, call.args[0], "lightMode", SymVal(mode))


def make_domain() -> Domain:
    rooms = ParameterSpec(COLLECTION, etype="Room")
    return Domain(
        id="lighting",
        entity_types=("Room",),
        relations={
            "name": RelationSpec("name", OBJ_TEXT, phrases=("named", "called")),
            "floor": RelationSpec("floor", OBJ_INT, phrases=("level", "story")),
            "lightMode": RelationSpec("lightMode", OBJ_SYM, phrases=("light", "lights")),
        },
        methods=(
            InterfaceMethod("turnLightOn", (rooms,), ("turn on", "switch on")),
            InterfaceMethod("turnLightOff", (rooms,), ("turn off", "switch off")),
        ),
        enum_symbols=("ON", "OFF"),
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
    )
