from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nlinstruct.domains import builtin_domains, generate_state_pair, get_domain, invoke
from nlinstruct.domains.base import COLLECTION, SINGLE, MethodCall, reindex, set_value, typed_entity
from nlinstruct.errors import DomainLogicError
from nlinstruct.kb import Entity, IntVal, State, SymVal, TextVal, Triple


def test_seven_builtin_domains():
    assert [d.id for d in builtin_domains()] == [
        "calendar", "container", "file", "lighting", "list", "messenger", "workforce",
    ]


def test_container_interface():
    domain = get_domain("container")
    names = {m.name for m in domain.methods}
    assert names == {"loadContainers", "unloadContainers", "removeContainers"}
    for m in domain.methods:
        (param,) = m.params
        assert param.kind == "collection" and param.etype == "ShippingContainer"


def test_workforce_interface():
    domain = get_domain("workforce")
    assert len(domain.methods) == 4
    update = domain.method("updateSalary")
    assert [p.kind for p in update.params] == ["single", "int"]
    assert update.params[0].etype == "Employee"


def test_lighting_room_properties():
    domain = get_domain("lighting")
    assert domain.entity_types == ("Room",)
    assert domain.relations["lightMode"].object_kind == "sym"
    assert set(domain.enum_symbols) == {"ON", "OFF"}
    assert domain.relations["floor"].object_kind == "int"
    assert domain.relations["name"].object_kind == "text"


def test_every_method_has_one_to_three_phrases():
    for domain in builtin_domains():
        for m in domain.methods:
            assert 1 <= len(m.phrases) <= 3


def _one_room(mode: str) -> State:
    r, t = typed_entity("room1", "Room")
    return State(
        "lighting",
        [r],
        [t, Triple(r, "name", TextVal("bedroom")), Triple(r, "floor", IntVal(1)),
         Triple(r, "lightMode", SymVal(mode))],
    )


def test_turn_light_on_flips_mode():
    domain = get_domain("lighting")
    state = _one_room("OFF")
    call = MethodCall(domain.method("turnLightOn"), (frozenset(state.entities),))
    result = invoke(domain, state, call)
    assert result.objects(Entity("room1", "Room"), "lightMode") == {SymVal("ON")}
    rest_a = {t for t in state.triples if t.relation != "lightMode"}
    rest_b = {t for t in result.triples if t.relation != "lightMode"}
    assert rest_a == rest_b


def test_turn_light_off_when_already_off_changes_nothing():
    domain = get_domain("lighting")
    state = _one_room("OFF")
    call = MethodCall(domain.method("turnLightOff"), (frozenset(state.entities),))
    assert invoke(domain, state, call) == state


def test_assigning_reports_to_non_manager_raises():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(13), {"employees": (6, 6)})
    devs = sorted(state.subjects("position", SymVal("DEVELOPER")), key=lambda e: e.id)
    if not devs:  # the seed above yields developers; guard for clarity
        pytest.skip("no developer in generated state")
    someone = sorted(state.entities - {devs[0]}, key=lambda e: e.id)[0]
    call = MethodCall(
        domain.method("assignEmployeesToNewManager"),
        (frozenset((someone,)), frozenset((devs[0],))),
    )
    with pytest.raises(DomainLogicError):
        invoke(domain, state, call)


def test_self_management_raises():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(13), {"employees": (6, 6)})
    boss = sorted(state.subjects("position", SymVal("MANAGER")), key=lambda e: e.id)[0]
    call = MethodCall(
        domain.method("assignEmployeesToNewManager"),
        (frozenset((boss,)), frozenset((boss,))),
    )
    with pytest.raises(DomainLogicError):
        invoke(domain, state, call)


def test_invoke_is_deterministic_and_idempotent_for_toggles():
    rng = random.Random(3)
    domain = get_domain("lighting")
    state = domain.generate_state(rng, domain.default_ranges)
    rooms = frozenset(state.entities_of_type("Room"))
    call = MethodCall(domain.method("turnLightOn"), (rooms,))
    once = invoke(domain, state, call)
    again = invoke(domain, state, call)
    assert once == again
    assert invoke(domain, once, call) == once


def test_removal_recompacts_indexes():
    domain = get_domain("list")
    state = domain.generate_state(random.Random(8), {"elements": (5, 5), "values": (1, 9)})
    by_idx = {next(iter(state.objects(e, "index"))).value: e for e in state.entities}
    call = MethodCall(domain.method("remove"), (frozenset((by_idx[2], by_idx[4])),))
    result = invoke(domain, state, call)
    indexes = sorted(
        next(iter(result.objects(e, "index"))).value for e in result.entities
    )
    assert indexes == [1, 2, 3]
    # surviving relative order is preserved
    survivors = sorted(result.entities, key=lambda e: next(iter(result.objects(e, "index"))).value)
    assert [e.id for e in survivors] == [by_idx[1].id, by_idx[3].id, by_idx[5].id]


def test_reindex_replaces_only_indexes_that_change(monkeypatch):
    # e1 keeps its index, e2 moves, e3 has two (one of them right), e4 none
    (e1, t1), (e2, t2), (e3, t3), (e4, t4) = (typed_entity(f"e{i}", "Item") for i in range(1, 5))
    state = State("toy", [e1, e2, e3, e4], [
        t1, t2, t3, t4, Triple(e1, "index", IntVal(1)), Triple(e2, "index", IntVal(5)),
        Triple(e3, "index", IntVal(3)), Triple(e3, "index", IntVal(7))])
    calls = []
    original = State.replace_triples

    def record(self, remove, add):
        calls.append((set(remove), set(add)))
        return original(self, remove, add)

    monkeypatch.setattr(State, "replace_triples", record)
    result = reindex(state, [e1, e2, e3, e4])
    assert calls == [({Triple(e2, "index", IntVal(5)), Triple(e3, "index", IntVal(3)),
                       Triple(e3, "index", IntVal(7))},
                      {Triple(e2, "index", IntVal(2)), Triple(e3, "index", IntVal(3)),
                       Triple(e4, "index", IntVal(4))})]
    assert result == State("toy", [e1, e2, e3, e4], [
        t1, t2, t3, t4, *(Triple(e, "index", IntVal(i)) for i, e in enumerate((e1, e2, e3, e4), 1))])


def test_move_to_beginning_rotates_indexes():
    domain = get_domain("list")
    state = domain.generate_state(random.Random(8), {"elements": (4, 4), "values": (1, 9)})
    by_idx = {next(iter(state.objects(e, "index"))).value: e for e in state.entities}
    call = MethodCall(domain.method("moveToBeginning"), (frozenset((by_idx[3],)),))
    result = invoke(domain, state, call)
    order = sorted(result.entities, key=lambda e: next(iter(result.objects(e, "index"))).value)
    assert [e.id for e in order] == [by_idx[3].id, by_idx[1].id, by_idx[2].id, by_idx[4].id]


def test_create_chat_group_mints_fresh_deterministic_entity():
    domain = get_domain("messenger")
    state = domain.generate_state(random.Random(2), {"users": (3, 3), "groups": (2, 2)})
    users = frozenset(state.entities_of_type("User"))
    call = MethodCall(domain.method("createChatGroup"), (users,))
    a = invoke(domain, state, call)
    b = invoke(domain, state, call)
    assert a == b
    new = a.entities - state.entities
    assert len(new) == 1
    (group,) = new
    assert group.id == "g3"
    assert a.objects(group, "participantsNumber") == {IntVal(len(users))}
    assert a.objects(group, "index") == {IntVal(3)}
    assert a.objects(group, "muted") == {SymVal("UNMUTED")}


def test_fired_employees_disappear_from_manager_edges():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(21), {"employees": (6, 6)})
    boss = sorted(state.subjects("position", SymVal("MANAGER")), key=lambda e: e.id)[0]
    call = MethodCall(domain.method("fireEmployees"), (frozenset((boss,)),))
    result = invoke(domain, state, call)
    assert boss not in result.entities
    assert all(t.object != boss for t in result.triples)


def test_move_files_appends_to_target_and_compacts_source():
    domain = get_domain("file")
    state = domain.generate_state(random.Random(6), {"directories": (2, 2), "files": (4, 4)})
    dirs = sorted(state.entities_of_type("Directory"), key=lambda e: e.id)
    files = sorted(state.entities_of_type("File"), key=lambda e: e.id)
    target = dirs[-1]
    call = MethodCall(domain.method("moveFiles"), (frozenset(files), frozenset((target,))))
    result = invoke(domain, state, call)
    assert result.objects(target, "childFiles") == frozenset(files)
    indexes = sorted(next(iter(result.objects(f, "index"))).value for f in files)
    assert indexes == list(range(1, len(files) + 1))


def _files_in_order(state: State, directory: Entity) -> list[Entity]:
    """A directory's files by (index, id), each checked to have one index."""
    files = state.objects(directory, "childFiles")
    assert all(len(state.objects(f, "index")) == 1 for f in files)
    return sorted(files, key=lambda f: (next(iter(state.objects(f, "index"))).value, f.id))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), remove=st.booleans(), data=st.data())
def test_file_operations_index_each_directory_in_its_earlier_order(seed, remove, data):
    # after removeFiles/moveFiles every directory's files are indexed 1..n:
    # the files it kept in their earlier order, then (in the target of a
    # move) the files moved in, in their earlier order across directories
    domain = get_domain("file")
    state = domain.generate_state(random.Random(seed), {"directories": (1, 5), "files": (1, 9)})
    dirs = sorted(state.entities_of_type("Directory"), key=lambda e: e.id)
    for d in dirs:  # generated indexes follow the ids; shuffle them
        state = reindex(state, data.draw(st.permutations(_files_in_order(state, d))))
    before = {d: _files_in_order(state, d) for d in dirs}
    files = sorted(state.entities_of_type("File"), key=lambda e: e.id)
    chosen = frozenset(data.draw(st.lists(st.sampled_from(files), min_size=1, unique=True)))
    if remove:
        call = MethodCall(domain.method("removeFiles"), (chosen,))
        expected = {d: [f for f in before[d] if f not in chosen] for d in dirs}
    else:
        target = data.draw(st.sampled_from(dirs))
        call = MethodCall(domain.method("moveFiles"), (chosen, frozenset((target,))))
        earlier = sorted(chosen, key=lambda f: (next(iter(state.objects(f, "index"))).value, f.id))
        expected = {d: [f for f in before[d] if f not in chosen] for d in dirs}
        expected[target] = before[target] + [f for f in earlier if f not in before[target]]
    result = invoke(domain, state, call)
    for d in dirs:
        in_order = _files_in_order(result, d)
        assert in_order == expected[d], (d, in_order, expected[d])
        assert [next(iter(result.objects(f, "index"))).value for f in in_order] == \
            list(range(1, len(in_order) + 1))


def test_demoting_a_manager_with_reports_raises():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(21), {"employees": (6, 6)})
    boss = sorted(
        (e for e in state.entities if state.subjects("manager", e)), key=lambda e: e.id
    )[0]
    call = MethodCall(
        domain.method("assignEmployeeToNewPosition"),
        (frozenset((boss,)), frozenset((SymVal("QA"),))),
    )
    with pytest.raises(DomainLogicError):
        invoke(domain, state, call)


_ENTITY_PARAMS = [
    (domain.id, method.name, i)
    for domain in builtin_domains()
    for method in domain.methods
    for i, param in enumerate(method.params)
    if param.kind in (COLLECTION, SINGLE)
]


@pytest.mark.parametrize("domain_id, method_name, position", _ENTITY_PARAMS,
                         ids=[f"{d}.{m}.{i}" for d, m, i in _ENTITY_PARAMS])
def test_invoke_refuses_an_entity_the_state_lacks(domain_id, method_name, position):
    domain = get_domain(domain_id)
    method = domain.method(method_name)
    state, call, _ = generate_state_pair(domain, method, random.Random(3))
    param = method.params[position]
    ghost = Entity("ghost", param.etype)
    assert ghost not in state.entities
    arg = {ghost} if param.kind == SINGLE else call.args[position] | {ghost}
    args = list(call.args)
    args[position] = frozenset(arg)
    with pytest.raises(DomainLogicError, match=f"{method_name}: unknown {param.etype} ghost"):
        invoke(domain, state, MethodCall(method, tuple(args)))


def test_set_value_leaves_alone_an_entity_without_the_relation():
    (r1, t1), (r2, t2), (r3, t3) = (typed_entity(f"room{i}", "Room") for i in (1, 2, 3))
    state = State("lighting", [r1, r2, r3], [
        t1, t2, t3, Triple(r1, "lightMode", SymVal("OFF")), Triple(r2, "lightMode", SymVal("ON")),
        Triple(r2, "lightMode", SymVal("OFF"))])
    result = set_value(state, {r1, r2, r3}, "lightMode", SymVal("ON"))
    assert result == State("lighting", [r1, r2, r3], [
        t1, t2, t3, Triple(r1, "lightMode", SymVal("ON")), Triple(r2, "lightMode", SymVal("ON"))])
    assert set_value(result, {r1, r2, r3}, "lightMode", SymVal("ON")) == result


def test_generated_states_conform_to_their_relations_object_kinds():
    # every generated pair of every domain, default and large sizes, loads
    # through the validator; each non-type triple given an object of
    # another kind is refused
    from test_memos import LARGE_RANGES

    from nlinstruct.domains.base import OBJ_ENTITY, OBJ_INT, OBJ_SYM, OBJ_TEXT, validate_state_for_domain
    from nlinstruct.errors import DataError
    from nlinstruct.kb import TYPE_RELATION

    other = {OBJ_INT: TextVal("two"), OBJ_TEXT: IntVal(2), OBJ_SYM: TextVal("ON"),
             OBJ_ENTITY: SymVal("ON")}
    refused = 0
    for domain in builtin_domains():
        rng = random.Random(41)
        for ranges in (None, LARGE_RANGES[domain.id]):
            for method in domain.methods:
                for _ in range(3):
                    initial, _, desired = generate_state_pair(domain, method, rng, ranges)
                    validate_state_for_domain(initial, domain)
                    validate_state_for_domain(desired, domain)
        kinds = set()
        for t in sorted(initial.triples, key=repr):
            kind = domain.relations[t.relation].object_kind
            if t.relation == TYPE_RELATION or kind in kinds:
                continue
            kinds.add(kind)
            bad = initial.replace_triples([t], [Triple(t.subject, t.relation, other[kind])])
            with pytest.raises(DataError, match=f"relation {t.relation!r} holds"):
                validate_state_for_domain(bad, domain)
            refused += 1
    assert refused >= 15
