"""Application logic that reads the state it was called on, against the
helpers that read the state they derive.

The domains that close index gaps read each kept entity's index and sort
key from the state they were called on, not from the state they derived
from it, so that the derived one never builds its own index. The
reference below is the earlier code: ``reindex`` and ``by_index`` read the
derived state, and ``int_of`` always builds its list. Every method of
every domain must give the same state, or raise the same error, on
generated states, on states derived from them, and on loaded states whose
indexes have gaps, repeat, or hold a value that is not an integer.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace

import pytest

from nlinstruct import dataio
from nlinstruct.domains import builtin_domains, invoke
from nlinstruct.domains import filemanager, messenger
from nlinstruct.domains.base import MethodCall, set_value, the, typed_entity
from nlinstruct.domains.generate import sample_arguments
from nlinstruct.errors import DomainLogicError, ExecutionError, NlinstructError
from nlinstruct.kb import IntVal, State, SymVal, Triple

from test_memos import LARGE_RANGES


def ref_int_of(state: State, e, relation: str) -> int:
    objs = [o for o in state.objects(e, relation) if isinstance(o, IntVal)]
    if len(objs) != 1:
        raise NlinstructError(f"{e.id}: expected one integer {relation}, got {len(objs)}")
    return objs[0].value


def ref_reindex(state: State, *orders) -> State:
    remove, add = [], []
    for order in orders:
        for i, e in enumerate(order, start=1):
            old = state.objects(e, "index")
            if old != {IntVal(i)}:
                remove.extend(Triple(e, "index", o) for o in old)
                add.append(Triple(e, "index", IntVal(i)))
    return state.replace_triples(remove, add)


def ref_by_index(state: State, entities) -> list:
    return sorted(entities, key=lambda e: (ref_int_of(state, e, "index"), e.id))


def ref_list(state: State, call: MethodCall) -> State:
    name = call.method.name
    if name == "remove":
        new = state.without_entities(call.args[0])
        return ref_reindex(new, ref_by_index(state, new.entities))
    element = the(call.args[0])
    others = [e for e in ref_by_index(state, state.entities) if e != element]
    order = [element] + others if name == "moveToBeginning" else others + [element]
    return ref_reindex(state, order)


def ref_container(state: State, call: MethodCall) -> State:
    containers = call.args[0]
    name = call.method.name
    if name == "loadContainers":
        return set_value(state, containers, "contentState", SymVal("LOADED"))
    if name == "unloadContainers":
        return set_value(state, containers, "contentState", SymVal("UNLOADED"))
    new = state.without_entities(containers)
    return ref_reindex(new, ref_by_index(state, new.entities))


def ref_messenger(state: State, call: MethodCall) -> State:
    if call.method.name == "deleteChatGroups":
        new = state.without_entities(call.args[0])
        return ref_reindex(new, ref_by_index(state, new.entities_of_type("ChatGroup")))
    if call.method.name != "createChatGroup":
        return messenger.logic(state, call)
    users = call.args[0]
    taken = [m.group(1).lstrip("0") for e in state.entities_of_type("ChatGroup")
             if (m := messenger._GROUP_ID.match(e.id))]
    g, t = typed_entity(
        f"g{messenger._successor(max(taken, key=lambda d: (len(d), d), default=''))}",
        "ChatGroup")
    last = max((ref_int_of(state, e, "index") for e in state.entities_of_type("ChatGroup")),
               default=0)
    triples = [t, Triple(g, "muted", SymVal("UNMUTED")),
               Triple(g, "participantsNumber", IntVal(len(users))),
               Triple(g, "index", IntVal(last + 1))]
    triples += [Triple(g, "contacts", u) for u in sorted(users, key=lambda e: e.id)]
    return state.with_entity(g, triples)


def ref_calendar(state: State, call: MethodCall) -> State:
    events = call.args[0]
    if call.method.name == "removeEvents":
        new = state.without_entities(events)
        order = sorted(new.entities, key=lambda e: (ref_int_of(new, e, "startTime"), e.id))
        return ref_reindex(new, order)
    return set_value(state, events, "color", the(call.args[1]))


def ref_file(state: State, call: MethodCall) -> State:
    files = call.args[0]
    directory_of = filemanager._directory_of
    if call.method.name == "removeFiles":
        touched = {directory_of(state, f) for f in files}
        new = state.without_entities(files)
    else:
        target = the(call.args[1])
        moving = [f for f in ref_by_index(state, files) if directory_of(state, f) != target]
        if not moving:
            return state
        touched = {directory_of(state, f) for f in moving}
        remove, add = [], []
        slot = len(state.objects(target, "childFiles"))
        for f in moving:
            src = directory_of(state, f)
            remove.append(Triple(src, "childFiles", f))
            remove.append(Triple(f, "index", IntVal(ref_int_of(state, f, "index"))))
            slot += 1
            add.append(Triple(target, "childFiles", f))
            add.append(Triple(f, "index", IntVal(slot)))
        new = state.replace_triples(remove, add)
    return ref_reindex(new, *(ref_by_index(new, new.objects(d, "childFiles"))
                              for d in sorted(touched, key=lambda e: e.id)))


#: Lighting and workforce call none of the changed helpers; their own
#: logic is their reference.
REFERENCE = {"list": ref_list, "container": ref_container, "messenger": ref_messenger,
             "calendar": ref_calendar, "file": ref_file}


def _outcome(domain, state: State, call: MethodCall):
    """The resulting state, or the type of the error the call raised (the
    message may name whichever bad entity a set yields first)."""
    try:
        return invoke(domain, state, call)
    except NlinstructError as exc:
        return type(exc)


def _loaded(state: State, rng: random.Random) -> list[State]:
    """The state loaded back from JSON, and with index gaps, a repeated
    index, an index that is text, and an extra index that is an entity."""
    doc = dataio.state_to_json(state)
    variants = [copy.deepcopy(doc)]
    indexed = [t for t in doc["triples"] if t[1] == "index"]
    if indexed:
        gaps = copy.deepcopy(doc)
        for t in gaps["triples"]:
            if t[1] == "index":
                t[2] = {"int": 3 * t[2]["int"] + rng.randint(0, 2)}
        variants.append(gaps)
        repeated = copy.deepcopy(doc)
        at = [t for t in repeated["triples"] if t[1] == "index"]
        if len(at) > 1:
            first, second = rng.sample(at, 2)
            first[2] = dict(second[2])
            variants.append(repeated)
        text = copy.deepcopy(doc)
        rng.choice([t for t in text["triples"] if t[1] == "index"])[2] = {"str": "2"}
        variants.append(text)
        entity = copy.deepcopy(doc)
        subject = rng.choice(indexed)[0]
        other = rng.choice(doc["entities"])["id"]
        entity["triples"].append([subject, "index", {"ent": other}])
        variants.append(entity)
    return [dataio.state_from_json(state.domain_id, v) for v in variants]


def _states(domain, rng: random.Random) -> list[State]:
    states = []
    for ranges in (domain.default_ranges, LARGE_RANGES.get(domain.id, domain.default_ranges)):
        state = domain.generate_state(rng, ranges)
        states += [state] + _loaded(state, rng)
        for method in domain.methods:  # one step derived, by each method
            args = sample_arguments(domain, state, method, rng)
            if args is not None:
                try:
                    states.append(invoke(domain, state, MethodCall(method, args)))
                except (DomainLogicError, ExecutionError, NlinstructError):
                    pass
    return states


DOMAINS = builtin_domains()


@pytest.mark.parametrize("domain", DOMAINS, ids=[d.id for d in DOMAINS])
@pytest.mark.parametrize("seed", range(6))
def test_every_method_gives_what_the_helpers_that_read_the_derived_state_gave(domain, seed):
    rng = random.Random(f"{seed}:{domain.id}")
    states = _states(domain, rng)
    reference = replace(domain, logic=REFERENCE.get(domain.id, domain.logic))
    calls = 0
    for state in states:
        for method in domain.methods:
            for _ in range(4):
                args = sample_arguments(domain, state, method, rng)
                if args is None:
                    continue
                try:
                    call = MethodCall(method, args)
                except ExecutionError:
                    continue
                got = _outcome(domain, state, call)
                # a fresh copy, so that no index the first run built is read
                fresh = State(state.domain_id, state.entities, state.triples)
                expected = _outcome(reference, fresh, call)
                assert got == expected, (state, call)
                calls += 1
    assert calls >= 10 * len(domain.methods)


def test_the_cases_the_loaded_states_make_are_met():
    # the differential test above meets index gaps, repeats, a text index
    # and an entity index, and calls that raise on them
    rng = random.Random("cases")
    raised = 0
    for domain in (d for d in DOMAINS if d.id in REFERENCE):
        state = domain.generate_state(rng, domain.default_ranges)
        for loaded in _loaded(state, rng)[1:]:
            for method in domain.methods:
                for _ in range(6):
                    args = sample_arguments(domain, loaded, method, rng)
                    if args is None:
                        continue
                    try:
                        outcome = _outcome(domain, loaded, MethodCall(method, args))
                    except ExecutionError:
                        continue
                    raised += not isinstance(outcome, State)
    assert raised > 0
