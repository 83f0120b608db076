"""Messenger: users and chat groups in display order.

``createChatGroup`` mints a new entity; ids and display positions are
assigned deterministically so identical calls on identical states always
produce identical states.
"""

from __future__ import annotations

import random
import re

from ..kb import IntVal, State, SymVal, TextVal, Triple
from .base import (
    COLLECTION,
    OBJ_ENTITY,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    by_index,
    int_of,
    reindex,
    set_value,
    typed_entity,
)

FIRST_NAMES = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")

DEFAULT_RANGES = {"users": (2, 5), "groups": (1, 4)}
# users have distinct first names, and every group gets at least one user
RANGE_LIMITS = {"users": (1, len(FIRST_NAMES))}

_GROUP_ID = re.compile(r"g(\d+)$")


def generate_state(rng: random.Random, ranges: dict) -> State:
    n_users = rng.randint(*ranges.get("users", DEFAULT_RANGES["users"]))
    n_groups = rng.randint(*ranges.get("groups", DEFAULT_RANGES["groups"]))
    entities, triples = [], []
    users = []
    for i, name in enumerate(rng.sample(FIRST_NAMES, n_users), start=1):
        u, t = typed_entity(f"u{i}", "User")
        entities.append(u)
        users.append(u)
        triples += [t, Triple(u, "firstName", TextVal(name))]
    for i in range(1, n_groups + 1):
        g, t = typed_entity(f"g{i}", "ChatGroup")
        entities.append(g)
        members = rng.sample(users, rng.randint(1, len(users)))
        triples += [
            t,
            Triple(g, "muted", SymVal(rng.choice(("MUTED", "UNMUTED")))),
            Triple(g, "participantsNumber", IntVal(len(members))),
            Triple(g, "index", IntVal(i)),
        ]
        triples += [Triple(g, "contacts", u) for u in members]
    return State("messenger", entities, triples)


def _successor(digits: str) -> str:
    """The decimal successor of a number written without leading zeros
    ("" for 0), computed on the digits: ``int()`` refuses strings of more
    than 4,300 digits, and a state file may hold such a group id."""
    head = digits.rstrip("9")
    zeros = "0" * (len(digits) - len(head))
    if not head:
        return "1" + zeros
    return head[:-1] + str(int(head[-1]) + 1) + zeros


def logic(state: State, call: MethodCall) -> State:
    name = call.method.name
    if name == "muteChatGroups":
        return set_value(state, call.args[0], "muted", SymVal("MUTED"))
    if name == "unmuteChatGroups":
        return set_value(state, call.args[0], "muted", SymVal("UNMUTED"))
    if name == "deleteChatGroups":
        groups = call.args[0]
        new = state.without_entities(groups)
        return reindex(new, by_index(state, new.entities_of_type("ChatGroup")))
    # createChatGroup(users)
    users = call.args[0]
    taken = [
        m.group(1).lstrip("0")
        for e in state.entities_of_type("ChatGroup")
        if (m := _GROUP_ID.match(e.id))
    ]
    g, t = typed_entity(f"g{_successor(max(taken, key=lambda d: (len(d), d), default=''))}",
                        "ChatGroup")
    last = max(
        (int_of(state, e, "index") for e in state.entities_of_type("ChatGroup")),
        default=0,
    )
    triples = [
        t,
        Triple(g, "muted", SymVal("UNMUTED")),
        Triple(g, "participantsNumber", IntVal(len(users))),
        Triple(g, "index", IntVal(last + 1)),
    ]
    triples += [Triple(g, "contacts", u) for u in sorted(users, key=lambda e: e.id)]
    return state.with_entity(g, triples)


def make_domain() -> Domain:
    groups = ParameterSpec(COLLECTION, etype="ChatGroup")
    return Domain(
        id="messenger",
        entity_types=("User", "ChatGroup"),
        relations={
            "firstName": RelationSpec("firstName", OBJ_TEXT, phrases=("named", "called")),
            "contacts": RelationSpec("contacts", OBJ_ENTITY, object_etype="User"),
            "muted": RelationSpec("muted", OBJ_SYM, phrases=("silent",)),
            "participantsNumber": RelationSpec(
                "participantsNumber",
                OBJ_INT,
                phrases=("participants", "members", "people", "largest", "biggest", "smallest"),
            ),
            "index": RelationSpec("index", OBJ_INT, phrases=("position", "first", "last")),
        },
        methods=(
            InterfaceMethod(
                "createChatGroup",
                (ParameterSpec(COLLECTION, etype="User"),),
                ("create", "start", "open"),
            ),
            InterfaceMethod("deleteChatGroups", (groups,), ("delete", "remove")),
            InterfaceMethod("muteChatGroups", (groups,), ("mute", "silence")),
            InterfaceMethod("unmuteChatGroups", (groups,), ("unmute",)),
        ),
        enum_symbols=("MUTED", "UNMUTED"),
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
        range_limits=RANGE_LIMITS,
    )
