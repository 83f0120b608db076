"""Random (initial state, method call, desired state) generation.

The loop: draw an initial state, draw random arguments, invoke. Whenever
invocation raises or leaves the state unchanged, redraw the arguments; after
1,000 failed argument draws the initial state is deemed problematic and a
fresh one is drawn. Every returned triple therefore satisfies
``invoke(s, c) == s'`` with ``s' != s`` and no exception, which is what
makes application-logic filtering unable to reject a gold call.
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

#: Initial-state restarts tolerated before generation gives up.
STATE_RESTARTS = 100


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
    if ranges is None:
        ranges = domain.default_ranges
    for _ in range(STATE_RESTARTS):
        state = domain.generate_state(rng, ranges)
        for _ in range(ARGUMENT_ATTEMPTS):
            drawn = sample_arguments(domain, state, method, rng)
            if drawn is None:
                continue
            try:
                call = MethodCall(method, drawn)
                result = invoke(domain, state, call)
            except (DomainLogicError, ExecutionError):
                continue
            if result == state:
                continue
            return state, call, result
    raise GenerationError(
        f"{domain.id}.{method.name}: no usable state pair after "
        f"{STATE_RESTARTS} initial states x {ARGUMENT_ATTEMPTS} argument draws"
    )
