"""Calendar: removable, recolorable events ordered by start time.

Events carry an ``index`` equal to their chronological rank, re-ranked
after removals.
"""

from __future__ import annotations

import random

from ..kb import IntVal, State, SymVal, TextVal, Triple
from .base import (
    COLLECTION,
    ENUM_ARG,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    int_of,
    reindex,
    set_value,
    the,
    typed_entity,
)

EVENT_TITLES = ("meeting", "lunch", "standup", "review", "interview", "workshop")
LOCATIONS = ("office", "cafe", "gym", "lobby")
COLORS = ("RED", "GREEN", "BLUE", "YELLOW")

START_HOURS = range(8, 20)

DEFAULT_RANGES = {"events": (2, 6), "attendees": (1, 9)}
# events start at distinct hours
RANGE_LIMITS = {"events": (0, len(START_HOURS))}


def generate_state(rng: random.Random, ranges: dict) -> State:
    n = rng.randint(*ranges.get("events", DEFAULT_RANGES["events"]))
    attendees = ranges.get("attendees", DEFAULT_RANGES["attendees"])
    times = sorted(rng.sample(START_HOURS, n))
    entities, triples = [], []
    for i, start in enumerate(times, start=1):
        e, t = typed_entity(f"ev{i}", "Event")
        entities.append(e)
        triples += [
            t,
            Triple(e, "title", TextVal(rng.choice(EVENT_TITLES))),
            Triple(e, "startTime", IntVal(start)),
            Triple(e, "location", TextVal(rng.choice(LOCATIONS))),
            Triple(e, "color", SymVal(rng.choice(COLORS))),
            Triple(e, "attendees", IntVal(rng.randint(*attendees))),
            Triple(e, "index", IntVal(i)),
        ]
    return State("calendar", entities, triples)


def logic(state: State, call: MethodCall) -> State:
    events = call.args[0]
    if call.method.name == "removeEvents":
        new = state.without_entities(events)
        order = sorted(new.entities, key=lambda e: (int_of(state, e, "startTime"), e.id))
        return reindex(new, order, old=state)
    # setEventColor(events, color)
    return set_value(state, events, "color", the(call.args[1]))


def make_domain() -> Domain:
    events = ParameterSpec(COLLECTION, etype="Event")
    return Domain(
        id="calendar",
        entity_types=("Event",),
        relations={
            "title": RelationSpec("title", OBJ_TEXT, phrases=("named", "called")),
            "startTime": RelationSpec("startTime", OBJ_INT, phrases=("time", "earliest", "latest")),
            "location": RelationSpec("location", OBJ_TEXT, phrases=("place",)),
            "color": RelationSpec("color", OBJ_SYM, phrases=("colored",)),
            "attendees": RelationSpec("attendees", OBJ_INT, phrases=("people", "guests")),
            "index": RelationSpec("index", OBJ_INT, phrases=("position", "first", "last")),
        },
        methods=(
            InterfaceMethod("removeEvents", (events,), ("remove", "cancel")),
            InterfaceMethod(
                "setEventColor",
                (events, ParameterSpec(ENUM_ARG, symbols=COLORS)),
                ("color", "recolor", "paint"),
            ),
        ),
        enum_symbols=COLORS,
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
        range_limits=RANGE_LIMITS,
    )
