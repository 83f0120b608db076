"""Workforce management: employees, their managers, salaries, positions.

Assigning reports to someone who is not a manager raises, as does making an
employee their own manager or demoting a manager who still has reports.
"""

from __future__ import annotations

import random

from ..errors import DomainLogicError
from ..kb import IntVal, State, SymVal, TextVal, Triple
from .base import (
    COLLECTION,
    ENUM_ARG,
    INT_ARG,
    OBJ_ENTITY,
    OBJ_INT,
    OBJ_SYM,
    OBJ_TEXT,
    SINGLE,
    Domain,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    the,
    typed_entity,
)

POSITIONS = ("DEVELOPER", "QA", "MANAGER")
NAMES = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")
SALARIES = tuple(range(40000, 95001, 5000))

DEFAULT_RANGES = {"employees": (3, 7)}
# employees have distinct names
RANGE_LIMITS = {"employees": (0, len(NAMES))}


def generate_state(rng: random.Random, ranges: dict) -> State:
    n = rng.randint(*ranges.get("employees", DEFAULT_RANGES["employees"]))
    entities, triples = [], []
    employees, positions = [], []
    for i, name in enumerate(rng.sample(NAMES, n), start=1):
        e, t = typed_entity(f"e{i}", "Employee")
        entities.append(e)
        employees.append(e)
        # keep at least one manager so assignments stay possible
        pos = "MANAGER" if i == 1 else rng.choice(POSITIONS)
        positions.append(pos)
        triples += [
            t,
            Triple(e, "name", TextVal(name)),
            Triple(e, "position", SymVal(pos)),
            Triple(e, "salary", IntVal(rng.choice(SALARIES))),
        ]
    managers = [e for e, p in zip(employees, positions) if p == "MANAGER"]
    for e, p in zip(employees, positions):
        if p != "MANAGER":
            triples.append(Triple(e, "manager", rng.choice(managers)))
    return State("workforce", entities, triples)


def _position(state: State, e) -> str:
    objs = [o for o in state.objects(e, "position") if isinstance(o, SymVal)]
    return objs[0].name if objs else ""


def logic(state: State, call: MethodCall) -> State:
    name = call.method.name
    if name == "fireEmployees":
        return state.without_entities(call.args[0])
    if name == "assignEmployeesToNewManager":
        emps, boss = call.args[0], the(call.args[1])
        if _position(state, boss) != "MANAGER":
            raise DomainLogicError(f"{boss.id} is not a manager")
        if boss in emps:
            raise DomainLogicError(f"{boss.id} cannot manage themselves")
        remove, add = [], []
        for e in sorted(emps, key=lambda x: x.id):
            for o in state.objects(e, "manager"):
                if o != boss:
                    remove.append(Triple(e, "manager", o))
            if boss not in state.objects(e, "manager"):
                add.append(Triple(e, "manager", boss))
        return state.replace_triples(remove, add)
    if name == "assignEmployeeToNewPosition":
        e, pos = the(call.args[0]), the(call.args[1])
        if pos.name != "MANAGER" and state.subjects("manager", e):
            raise DomainLogicError(f"{e.id} still has direct reports")
        if state.objects(e, "position") == frozenset((pos,)):
            return state
        return state.replace_triples(
            [Triple(e, "position", o) for o in state.objects(e, "position")],
            [Triple(e, "position", pos)],
        )
    # updateSalary(employee, amount)
    e, amount = the(call.args[0]), the(call.args[1])
    return state.replace_triples(
        [Triple(e, "salary", o) for o in state.objects(e, "salary")],
        [Triple(e, "salary", amount)],
    )


def make_domain() -> Domain:
    return Domain(
        id="workforce",
        entity_types=("Employee",),
        relations={
            "name": RelationSpec("name", OBJ_TEXT, phrases=("named", "called")),
            "manager": RelationSpec("manager", OBJ_ENTITY, object_etype="Employee", phrases=("boss",)),
            "salary": RelationSpec("salary", OBJ_INT, phrases=("paid", "earns")),
            "position": RelationSpec("position", OBJ_SYM, phrases=("role", "job")),
        },
        methods=(
            InterfaceMethod(
                "assignEmployeesToNewManager",
                (
                    ParameterSpec(COLLECTION, etype="Employee"),
                    ParameterSpec(SINGLE, etype="Employee"),
                ),
                ("assign", "reassign"),
            ),
            InterfaceMethod(
                "fireEmployees",
                (ParameterSpec(COLLECTION, etype="Employee"),),
                ("fire", "dismiss", "terminate"),
            ),
            InterfaceMethod(
                "assignEmployeeToNewPosition",
                (
                    ParameterSpec(SINGLE, etype="Employee"),
                    ParameterSpec(ENUM_ARG, symbols=POSITIONS),
                ),
                ("promote", "demote"),
            ),
            InterfaceMethod(
                "updateSalary",
                (
                    ParameterSpec(SINGLE, etype="Employee"),
                    ParameterSpec(INT_ARG, int_pool=SALARIES),
                ),
                ("salary", "pay", "raise"),
            ),
        ),
        enum_symbols=POSITIONS,
        logic=logic,
        generate_state=generate_state,
        default_ranges=dict(DEFAULT_RANGES),
        range_limits=RANGE_LIMITS,
    )
