"""Domain framework: declarations, built-in domains, state-pair generation.

New domains are added by building a :class:`Domain` (declarative data plus
an application-logic function) and registering it under its id.
"""

from __future__ import annotations

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
    Example,
    InterfaceMethod,
    MethodCall,
    ParameterSpec,
    RelationSpec,
    invoke,
)
from .generate import ARGUMENT_ATTEMPTS, generate_state_pair
from . import calendar, container, filemanager, lighting, listdomain, messenger, workforce

_BUILTIN_MAKERS = (
    calendar.make_domain,
    container.make_domain,
    filemanager.make_domain,
    lighting.make_domain,
    listdomain.make_domain,
    messenger.make_domain,
    workforce.make_domain,
)

_builtin_cache: dict[str, Domain] | None = None


def builtin_domains() -> list[Domain]:
    """The seven shipped domains, ordered by id."""
    global _builtin_cache
    if _builtin_cache is None:
        _builtin_cache = {d.id: d for d in (make() for make in _BUILTIN_MAKERS)}
    return sorted(_builtin_cache.values(), key=lambda d: d.id)


def get_domain(domain_id: str) -> Domain:
    builtin_domains()
    try:
        return _builtin_cache[domain_id]
    except KeyError:
        raise KeyError(f"unknown domain {domain_id!r}") from None


__all__ = [
    "ARGUMENT_ATTEMPTS",
    "COLLECTION",
    "Domain",
    "ENUM_ARG",
    "Example",
    "INT_ARG",
    "InterfaceMethod",
    "MethodCall",
    "OBJ_ENTITY",
    "OBJ_INT",
    "OBJ_SYM",
    "OBJ_TEXT",
    "ParameterSpec",
    "RelationSpec",
    "SINGLE",
    "builtin_domains",
    "generate_state_pair",
    "get_domain",
    "invoke",
]
