from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nlinstruct.domains import get_domain
from nlinstruct.domains.base import invoke, typed_entity
from nlinstruct.errors import ExecutionError
from nlinstruct.kb import Entity, IntVal, State, SymVal, TextVal, Triple
from nlinstruct.logic import (
    ARGMAX,
    Call,
    ForwardJoin,
    Intersect,
    ReverseJoin,
    Superlative,
    TypeSet,
    ValueLit,
    evaluate,
    execute_to_call,
)

from conftest import join, root
from oracles import brute_force_denotation


def _file_state(sizes: dict[str, int]) -> State:
    domain = get_domain("file")
    root, rt = typed_entity("d1", "Directory")
    entities, triples = [root], [rt, Triple(root, "name", TextVal("home"))]
    for i, (name, nbytes) in enumerate(sorted(sizes.items()), start=1):
        f, t = typed_entity(f"f{i}", "File")
        entities.append(f)
        triples += [
            t,
            Triple(f, "name", TextVal(name)),
            Triple(f, "sizeInBytes", IntVal(nbytes)),
            Triple(f, "type", SymVal("TXT")),
            Triple(root, "childFiles", f),
            Triple(f, "index", IntVal(i)),
        ]
    return State(domain.id, entities, triples)


def test_remove_largest_file_end_to_end():
    domain = get_domain("file")
    state = _file_state({"small": 10, "big": 99})
    lf = root(domain, "removeFiles", Superlative(ARGMAX, TypeSet("File"), "sizeInBytes"))
    result = invoke(domain, state, execute_to_call(lf, state))
    names = {
        o.value
        for t in result.triples
        if t.relation == "name" and t.subject.etype == "File"
        for o in [t.object]
    }
    assert names == {"small"}


def test_value_literal_denotes_itself(paper_state):
    assert evaluate(ValueLit(IntVal(4)), paper_state) == {IntVal(4)}


def test_reverse_join_floor(paper_state):
    assert evaluate(ReverseJoin("floor", ValueLit(IntVal(2))), paper_state) == {
        Entity("room1", "Room")
    }


def test_execute_to_call_by_index():
    domain = get_domain("container")
    state = domain.generate_state(random.Random(4), {"containers": (5, 5)})
    lf = root(domain, "unloadContainers", join("index", 4))
    call = execute_to_call(lf, state)
    assert call.method.name == "unloadContainers"
    (arg,) = call.args
    (entity,) = arg
    assert state.objects(entity, "index") == {IntVal(4)}


def test_empty_argument_is_an_execution_error():
    domain = get_domain("list")
    state = get_domain("list").generate_state(random.Random(1), {"elements": (3, 3), "values": (1, 5)})
    lf = Call(domain.method("remove"), (ReverseJoin("value", ValueLit(IntVal(99))),))
    with pytest.raises(ExecutionError):
        execute_to_call(lf, state)


def test_remove_by_value_binding():
    domain = get_domain("list")
    e, t = typed_entity("el1", "Element")
    state = State("list", [e], [t, Triple(e, "value", IntVal(2)), Triple(e, "index", IntVal(1))])
    call = execute_to_call(root(domain, "remove", join("value", 2)), state)
    assert call.args == (frozenset((e,)),)


def test_superlative_ties_keep_all_extremes():
    state = _file_state({"a": 7, "b": 7, "c": 7})
    got = evaluate(Superlative("argmax", TypeSet("File"), "sizeInBytes"), state)
    assert got == state.entities_of_type("File")


def test_superlative_over_empty_set_is_empty():
    state = _file_state({"a": 7})
    got = evaluate(Superlative("argmin", ReverseJoin("name", ValueLit(TextVal("nope"))), "sizeInBytes"), state)
    assert got == frozenset()


def test_intersection_is_commutative_at_denotation_level():
    state = _file_state({"a": 7, "b": 9})
    x = ReverseJoin("name", ValueLit(TextVal("a")))
    y = TypeSet("File")
    assert evaluate(Intersect(x, y), state) == evaluate(Intersect(y, x), state)


def test_text_matching_is_case_insensitive(paper_state):
    got = evaluate(ReverseJoin("name", ValueLit(TextVal("Bedroom"))), paper_state)
    assert got == {Entity("room1", "Room")}


def test_forward_join_follows_entity_relations():
    domain = get_domain("workforce")
    state = domain.generate_state(random.Random(9), {"employees": (5, 5)})
    boss = evaluate(ForwardJoin("manager", TypeSet("Employee")), state)
    assert boss
    assert all(state.objects(b, "position") == {SymVal("MANAGER")} for b in boss)


def test_execute_never_mutates_the_input_state():
    domain = get_domain("file")
    state = _file_state({"a": 1, "b": 2})
    snapshot = (set(state.entities), set(state.triples))
    invoke(domain, state, execute_to_call(root(domain, "removeFiles", TypeSet("File")), state))
    assert (set(state.entities), set(state.triples)) == snapshot


def test_forms_print_their_canonical_notation():
    # the chart deduplicates on printed forms and the denotation memo keys
    # on them
    domain = get_domain("file")

    def remove(arg):
        return root(domain, "removeFiles", arg)

    cases = [
        (remove(Superlative(ARGMAX, TypeSet("File"), "sizeInBytes")),
         "removeFiles(argmax(R[type].File, R[sizeInBytes]))"),
        (root(domain, "moveFiles", join("name", "notes"), join("name", "documents")),
         "moveFiles(R[name].notes, R[name].documents)"),
        (remove(Intersect(join("type", "TXT"), join("name", "report"))),
         "removeFiles(Intersect(R[name].report, R[type].TXT))"),
        (remove(join("index", 4)), "removeFiles(R[index].4)"),
        (remove(join("name", "living room")), 'removeFiles(R[name]."living room")'),
        (remove(ForwardJoin("childFiles", TypeSet("Directory"))),
         "removeFiles(F[childFiles].R[type].Directory)"),
        # a backslash is escaped like a quote
        (remove(join("name", "a\\")), r'removeFiles(R[name]."a\\")'),
        (remove(join("name", 'a\\"b')), r'removeFiles(R[name]."a\\\"b")'),
    ]
    for form, text in cases:
        assert form.printed == text


_VALUES = st.one_of(
    st.text().map(TextVal),
    st.text('a\\"', max_size=2).map(TextVal),  # few texts, so that close ones meet
    st.integers().map(IntVal),
    st.from_regex(r"[A-Z][A-Z0-9_]*", fullmatch=True).map(SymVal),
)


@settings(derandomize=True)
@given(st.lists(_VALUES, unique=True, max_size=8))
def test_distinct_value_literals_print_distinctly(values):
    printed = [ValueLit(v).printed for v in values]
    assert len(set(printed)) == len(printed)
    # a quoted literal ends at its first unescaped quote, so none is the
    # start of another and forms built of literals print distinctly too
    quoted = [p for p in printed if p.startswith('"')]
    assert not [(a, b) for a in quoted for b in quoted if a != b and b.startswith(a)]


def _random_form(rng: random.Random, domain, state, depth: int):
    relations = sorted(domain.relations.values(), key=lambda r: r.name)
    text_vals = sorted(
        {t.object for t in state.triples if isinstance(t.object, TextVal)},
        key=lambda v: v.value,
    )
    choices = ["type"]
    if depth > 0:
        choices += ["rjoin", "rjoin", "intersect", "superlative"]
        if any(r.object_kind == "entity" for r in relations):
            choices += ["fjoin"]
    kind = rng.choice(choices)
    if kind == "type":
        return TypeSet(rng.choice(sorted(domain.entity_types)))
    if kind == "rjoin":
        spec = rng.choice(relations)
        if spec.object_kind == "int":
            return ReverseJoin(spec.name, ValueLit(IntVal(rng.randint(1, 9))))
        if spec.object_kind == "text" and text_vals:
            return ReverseJoin(spec.name, ValueLit(rng.choice(text_vals)))
        if spec.object_kind == "sym" and domain.enum_symbols:
            return ReverseJoin(spec.name, ValueLit(SymVal(rng.choice(sorted(domain.enum_symbols)))))
        if spec.object_kind == "entity":
            return ReverseJoin(spec.name, _random_form(rng, domain, state, depth - 1))
        return TypeSet(rng.choice(sorted(domain.entity_types)))
    if kind == "fjoin":
        spec = rng.choice([r for r in relations if r.object_kind == "entity"])
        return ForwardJoin(spec.name, _random_form(rng, domain, state, depth - 1))
    if kind == "intersect":
        return Intersect(
            _random_form(rng, domain, state, depth - 1),
            _random_form(rng, domain, state, depth - 1),
        )
    int_rels = [r for r in relations if r.object_kind == "int"]
    if not int_rels:
        return TypeSet(rng.choice(sorted(domain.entity_types)))
    return Superlative(
        rng.choice(("argmax", "argmin")),
        _random_form(rng, domain, state, depth - 1),
        rng.choice(int_rels).name,
    )


def test_executor_matches_brute_force_on_random_forms():
    rng = random.Random(2024)
    domains = [get_domain(d) for d in ("lighting", "list", "container", "file", "workforce")]
    for _ in range(200):
        domain = rng.choice(domains)
        state = domain.generate_state(rng, domain.default_ranges)
        lf = _random_form(rng, domain, state, depth=4)
        assert evaluate(lf, state) == brute_force_denotation(lf, state)
