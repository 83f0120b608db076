"""Random (initial state, method call, desired state) generation.

One loop serves ``nlinstruct generate``'s state pairs and the template
corpus alike: draw an initial state, propose a call up to ``tries`` times
on it, and invoke. A proposal the state cannot supply, a call that fails
or raises, and one that changes nothing are rejected; a state is redrawn
after ``tries`` rejections (1,000 random argument draws, or one template),
and generation gives up after :data:`STATE_RESTARTS` states. So every
triple satisfies ``invoke(s, c) == s'`` with ``s' != s`` and no exception,
and application-logic filtering cannot reject a gold call.
"""

from __future__ import annotations

import random

from ..errors import DomainLogicError, ExecutionError, GenerationError
from ..kb import IntVal, State, SymVal
from .base import (
    COLLECTION,
    ENUM_ARG,
    INT_ARG,
    SINGLE,
    Domain,
    InterfaceMethod,
    MethodCall,
    invoke,
)

#: Failed argument draws tolerated before the initial state is discarded.
ARGUMENT_ATTEMPTS = 1000

#: Initial states drawn before generation gives up.
STATE_RESTARTS = 100


def draw_triple(domain: Domain, rng: random.Random, propose, tries: int,
                ranges: dict | None, what: str) -> tuple[State, MethodCall, State, object]:
    """A valid (initial state, call, desired state, payload) quadruple;
    ``propose(state)`` gives ``(call, payload)``, or None for no proposal."""
    for _ in range(STATE_RESTARTS):
        state = domain.generate_state(rng, ranges or domain.default_ranges)
        for _ in range(tries):
            try:
                proposed = propose(state)
                if proposed is None:
                    continue
                call, payload = proposed
                result = invoke(domain, state, call)
            except (DomainLogicError, ExecutionError):
                continue
            if result != state:
                return state, call, result, payload
    raise GenerationError(f"{what}: no usable state pair after {STATE_RESTARTS} "
                          f"initial states x {tries} proposals")


def sample_arguments(domain: Domain, state: State, method: InterfaceMethod,
                     rng: random.Random) -> tuple[frozenset, ...] | None:
    """One random argument tuple, or None when the state cannot supply one."""
    args = []
    for param in method.params:
        if param.kind in (COLLECTION, SINGLE):
            pool = sorted(state.entities_of_type(param.etype), key=lambda e: e.id)
            if not pool:
                return None
            if param.kind == COLLECTION:
                chosen = rng.sample(pool, rng.randint(1, len(pool)))
            else:
                chosen = [rng.choice(pool)]
            args.append(frozenset(chosen))
        elif param.kind == INT_ARG:
            pool = param.int_pool or tuple(range(1, 11))
            args.append(frozenset((IntVal(rng.choice(pool)),)))
        elif param.kind == ENUM_ARG:
            args.append(frozenset((SymVal(rng.choice(param.symbols)),)))
    return tuple(args)


def generate_state_pair(domain: Domain, method: InterfaceMethod, rng: random.Random,
                        ranges: dict | None = None) -> tuple[State, MethodCall, State]:
    """A valid (initial state, gold call, desired state) triple."""

    def propose(state):
        drawn = sample_arguments(domain, state, method, rng)
        return None if drawn is None else (MethodCall(method, drawn), None)

    return draw_triple(domain, rng, propose, ARGUMENT_ATTEMPTS, ranges,
                       f"{domain.id}.{method.name}")[:3]
