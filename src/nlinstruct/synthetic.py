"""Template-generated instruction corpora over the built-in domains.

Test and experiment support: each template renders an English instruction
from a method's description phrases and a describable argument (a name, an
index, a property value, a superlative, or a whole entity type) and pairs
it with the logical form it means. Examples come from the state-pair loop
of :mod:`nlinstruct.domains.generate`, one try per state, so gold calls are
exact by construction. Methods whose only distinguishing argument is a
floating enum symbol (event colors, job positions) have no template:
nothing in an utterance can select among those symbols, and such examples
would cap at fractional credit.
"""

from __future__ import annotations

import random

from .domains import Domain, Example
from .domains.base import int_of
from .domains.generate import draw_triple
from .kb import Entity, IntVal, State, SymVal, TextVal
from .logic import (
    ARGMAX,
    ARGMIN,
    Call,
    LogicalForm,
    ReverseJoin,
    Superlative,
    TypeSet,
    ValueLit,
    execute_to_call,
)
from .parser import NUMBER_WORDS, ORDINAL_WORDS

#: Domains covered by the corpus builder.
CORPUS_DOMAINS = ("calendar", "container", "file", "lighting", "list", "messenger", "workforce")

#: The six-domain subset used by the trainability and zero-shot experiments.
EXPERIMENT_DOMAINS = ("container", "file", "lighting", "list", "messenger", "workforce")

_WORD_OF = {v: k for k, v in NUMBER_WORDS.items()}
_ORDINAL_OF = {v: k for k, v in ORDINAL_WORDS.items()}


def _texts(state: State, etype: str, relation: str) -> list[tuple[Entity, str]]:
    out = []
    for e in sorted(state.entities_of_type(etype), key=lambda x: x.id):
        for o in state.objects(e, relation):
            if isinstance(o, TextVal):
                out.append((e, o.value))
    return out


def _sym(state: State, e: Entity, relation: str) -> str:
    (o,) = state.objects(e, relation)
    return o.name


def _number_phrase(rng: random.Random, n: int) -> str:
    word = _WORD_OF.get(n)
    return rng.choice((str(n), word)) if word else str(n)


# ---- lighting --------------------------------------------------------------


def _lighting_by_name(domain, state, rng):
    turn_on = rng.random() < 0.5
    want = "OFF" if turn_on else "ON"
    rooms = [(e, n) for e, n in _texts(state, "Room", "name")
             if _sym(state, e, "lightMode") == want]
    if not rooms:
        return None
    _, name = rng.choice(rooms)
    method = domain.method("turnLightOn" if turn_on else "turnLightOff")
    verb = rng.choice(method.phrases)
    return (
        f"{verb} the light in the {name}",
        Call(method, (ReverseJoin("name", ValueLit(TextVal(name))),)),
    )


def _lighting_by_floor(domain, state, rng):
    turn_on = rng.random() < 0.5
    want = "OFF" if turn_on else "ON"
    floors = sorted(
        {
            int_of(state, e, "floor")
            for e in state.entities_of_type("Room")
            if _sym(state, e, "lightMode") == want
        }
    )
    if not floors:
        return None
    f = rng.choice(floors)
    method = domain.method("turnLightOn" if turn_on else "turnLightOff")
    return (
        f"{method.phrases[0]} all the lights on floor {f}",
        Call(method, (ReverseJoin("floor", ValueLit(IntVal(f))),)),
    )


def _lighting_by_mode(domain, state, rng):
    turn_on = rng.random() < 0.5
    want = "OFF" if turn_on else "ON"
    if not any(_sym(state, e, "lightMode") == want for e in state.entities_of_type("Room")):
        return None
    method = domain.method("turnLightOn" if turn_on else "turnLightOff")
    mode_word = "off" if turn_on else "on"
    return (
        f"{method.phrases[0]} all the lights that are {mode_word}",
        Call(method, (ReverseJoin("lightMode", ValueLit(SymVal(want))),)),
    )


def _lighting_all(domain, state, rng):
    turn_on = rng.random() < 0.5
    want = "OFF" if turn_on else "ON"
    if not any(_sym(state, e, "lightMode") == want for e in state.entities_of_type("Room")):
        return None
    method = domain.method("turnLightOn" if turn_on else "turnLightOff")
    return (f"{method.phrases[1]} all the lights", Call(method, (TypeSet("Room"),)))


# ---- container -------------------------------------------------------------

_CONTAINER_METHODS = ("loadContainers", "unloadContainers", "removeContainers")


def _container_superlative(domain, state, rng):
    method = domain.method(rng.choice(_CONTAINER_METHODS))
    kind = rng.choice((ARGMAX, ARGMIN))
    word = "longest" if kind == ARGMAX else "shortest"
    return (
        f"{method.phrases[0]} the {word} container",
        Call(method, (Superlative(kind, TypeSet("ShippingContainer"), "length"),)),
    )


def _container_by_terminal(domain, state, rng):
    containers = sorted(state.entities_of_type("ShippingContainer"), key=lambda e: e.id)
    method = domain.method(rng.choice(_CONTAINER_METHODS))
    k = int_of(state, rng.choice(containers), "index")
    return (
        f"{method.phrases[0]} the container in terminal {_number_phrase(rng, k)}",
        Call(method, (ReverseJoin("index", ValueLit(IntVal(k))),)),
    )


def _container_by_ordinal(domain, state, rng):
    containers = sorted(state.entities_of_type("ShippingContainer"), key=lambda e: e.id)
    method = domain.method(rng.choice(_CONTAINER_METHODS))
    k = int_of(state, rng.choice(containers), "index")
    word = _ORDINAL_OF.get(k)
    if word is None:
        return None
    return (
        f"{method.phrases[0]} the {word} container",
        Call(method, (ReverseJoin("index", ValueLit(IntVal(k))),)),
    )


def _container_by_state(domain, state, rng):
    load = rng.random() < 0.5
    method = domain.method("loadContainers" if load else "unloadContainers")
    want = "UNLOADED" if load else "LOADED"
    word = "empty" if load else "loaded"
    return (
        f"{method.phrases[0]} all the {word} containers",
        Call(method, (ReverseJoin("contentState", ValueLit(SymVal(want))),)),
    )


# ---- file ------------------------------------------------------------------


def _file_superlative(domain, state, rng):
    method = domain.method("removeFiles")
    kind = rng.choice((ARGMAX, ARGMIN))
    word = "largest" if kind == ARGMAX else "smallest"
    return (
        f"{method.phrases[0]} the {word} file",
        Call(method, (Superlative(kind, TypeSet("File"), "sizeInBytes"),)),
    )


def _file_by_name(domain, state, rng):
    files = _texts(state, "File", "name")
    if not files:
        return None
    _, name = rng.choice(files)
    method = domain.method("removeFiles")
    return (
        f"{method.phrases[0]} the file named {name}",
        Call(method, (ReverseJoin("name", ValueLit(TextVal(name))),)),
    )


def _file_move(domain, state, rng):
    files = _texts(state, "File", "name")
    dirs = _texts(state, "Directory", "name")
    if not files or len(dirs) < 2:
        return None
    _, fname = rng.choice(files)
    _, dname = rng.choice(dirs)
    method = domain.method("moveFiles")
    return (
        f"{method.phrases[0]} the file named {fname} to the {dname} directory",
        Call(
            method,
            (ReverseJoin("name", ValueLit(TextVal(fname))),
             ReverseJoin("name", ValueLit(TextVal(dname)))),
        ),
    )


# ---- list ------------------------------------------------------------------


def _list_by_value(domain, state, rng):
    elements = sorted(state.entities_of_type("Element"), key=lambda e: e.id)
    v = int_of(state, rng.choice(elements), "value")
    method = domain.method("remove")
    return (
        f"{method.phrases[0]} the number {v}",
        Call(method, (ReverseJoin("value", ValueLit(IntVal(v))),)),
    )


def _list_by_ordinal(domain, state, rng):
    elements = sorted(state.entities_of_type("Element"), key=lambda e: e.id)
    k = int_of(state, rng.choice(elements), "index")
    word = _ORDINAL_OF.get(k)
    if word is None:
        return None
    method = domain.method("remove")
    return (
        f"{method.phrases[0]} the {word} element",
        Call(method, (ReverseJoin("index", ValueLit(IntVal(k))),)),
    )


def _list_superlative(domain, state, rng):
    method = domain.method("remove")
    kind = rng.choice((ARGMAX, ARGMIN))
    word = "largest" if kind == ARGMAX else "smallest"
    return (
        f"{method.phrases[0]} the {word} number",
        Call(method, (Superlative(kind, TypeSet("Element"), "value"),)),
    )


def _list_move(domain, state, rng):
    if len(state.entities_of_type("Element")) < 2:
        return None
    to_front = rng.random() < 0.5
    method = domain.method("moveToBeginning" if to_front else "moveToEnd")
    kind = ARGMAX if to_front else ARGMIN
    word = "last" if to_front else "first"
    target = method.phrases[0]
    return (
        f"move the {word} element to the {target}",
        Call(method, (Superlative(kind, TypeSet("Element"), "index"),)),
    )


# ---- messenger -------------------------------------------------------------


def _messenger_create(domain, state, rng):
    users = _texts(state, "User", "firstName")
    if not users:
        return None
    method = domain.method("createChatGroup")
    if rng.random() < 0.4:
        return (f"{method.phrases[0]} a chat group with everyone",
                Call(method, (TypeSet("User"),)))
    _, name = rng.choice(users)
    return (
        f"{method.phrases[0]} a chat group with {name}",
        Call(method, (ReverseJoin("firstName", ValueLit(TextVal(name))),)),
    )


def _messenger_superlative(domain, state, rng):
    mute = rng.random() < 0.5
    method = domain.method("muteChatGroups" if mute else "unmuteChatGroups")
    kind = rng.choice((ARGMAX, ARGMIN))
    word = "biggest" if kind == ARGMAX else "smallest"
    return (
        f"{method.phrases[0]} the {word} group",
        Call(method, (Superlative(kind, TypeSet("ChatGroup"), "participantsNumber"),)),
    )


def _messenger_by_ordinal(domain, state, rng):
    groups = sorted(state.entities_of_type("ChatGroup"), key=lambda e: e.id)
    if not groups:
        return None
    k = int_of(state, rng.choice(groups), "index")
    word = _ORDINAL_OF.get(k)
    if word is None:
        return None
    name = rng.choice(("deleteChatGroups", "muteChatGroups", "unmuteChatGroups"))
    method = domain.method(name)
    return (
        f"{method.phrases[0]} the {word} group",
        Call(method, (ReverseJoin("index", ValueLit(IntVal(k))),)),
    )


# ---- workforce -------------------------------------------------------------


def _workforce_fire(domain, state, rng):
    people = _texts(state, "Employee", "name")
    if not people:
        return None
    _, name = rng.choice(people)
    method = domain.method("fireEmployees")
    return (
        f"{rng.choice(method.phrases)} {name}",
        Call(method, (ReverseJoin("name", ValueLit(TextVal(name))),)),
    )


def _workforce_salary(domain, state, rng):
    people = _texts(state, "Employee", "name")
    if not people:
        return None
    _, name = rng.choice(people)
    method = domain.method("updateSalary")
    amount = rng.choice(method.params[1].int_pool)
    return (
        f"update the salary of {name} to {amount}",
        Call(method, (ReverseJoin("name", ValueLit(TextVal(name))), ValueLit(IntVal(amount)))),
    )


def _workforce_assign(domain, state, rng):
    managers = [
        (e, n)
        for e, n in _texts(state, "Employee", "name")
        if _sym(state, e, "position") == "MANAGER"
    ]
    others = [
        (e, n)
        for e, n in _texts(state, "Employee", "name")
        if _sym(state, e, "position") != "MANAGER"
    ]
    if not managers or not others:
        return None
    boss, boss_name = rng.choice(managers)
    emp, emp_name = rng.choice(others)
    if boss in state.objects(emp, "manager"):
        return None
    method = domain.method("assignEmployeesToNewManager")
    return (
        f"{method.phrases[0]} {emp_name} to {boss_name}",
        Call(
            method,
            (ReverseJoin("name", ValueLit(TextVal(emp_name))),
             ReverseJoin("name", ValueLit(TextVal(boss_name)))),
        ),
    )


# ---- calendar --------------------------------------------------------------


def _calendar_by_title(domain, state, rng):
    events = _texts(state, "Event", "title")
    if not events:
        return None
    _, title = rng.choice(events)
    method = domain.method("removeEvents")
    return (
        f"{rng.choice(method.phrases)} the {title}",
        Call(method, (ReverseJoin("title", ValueLit(TextVal(title))),)),
    )


def _calendar_by_order(domain, state, rng):
    method = domain.method("removeEvents")
    kind = rng.choice((ARGMAX, ARGMIN))
    word = "last" if kind == ARGMAX else "first"
    return (
        f"{method.phrases[1]} the {word} event",
        Call(method, (Superlative(kind, TypeSet("Event"), "index"),)),
    )


TEMPLATES = {
    "lighting": (_lighting_by_name, _lighting_by_floor, _lighting_by_mode, _lighting_all),
    "container": (
        _container_superlative,
        _container_by_terminal,
        _container_by_ordinal,
        _container_by_state,
    ),
    "file": (_file_superlative, _file_by_name, _file_move),
    "list": (_list_by_value, _list_by_ordinal, _list_superlative, _list_move),
    "messenger": (_messenger_create, _messenger_superlative, _messenger_by_ordinal),
    "workforce": (_workforce_fire, _workforce_salary, _workforce_assign),
    "calendar": (_calendar_by_title, _calendar_by_order),
}


def build_domain_corpus(
    domain: Domain,
    count: int,
    seed: int = 0,
    ranges: dict | None = None,
) -> list[tuple[Example, LogicalForm]]:
    """``count`` instruction examples with their gold logical forms; the
    templates take turns, one example each."""
    templates = TEMPLATES[domain.id]
    rng = random.Random(f"{seed}:{domain.id}")
    out: list[tuple[Example, LogicalForm]] = []
    for i in range(count):
        template = templates[i % len(templates)]

        def propose(state):
            made = template(domain, state, rng)
            return None if made is None else (execute_to_call(made[1], state), made)

        state, _, desired, (utterance, lf) = draw_triple(
            domain, rng, propose, 1, ranges, f"{domain.id} template {template.__name__}")
        out.append((Example(f"{domain.id}-{i:04d}", domain.id, state, utterance, desired), lf))
    return out
