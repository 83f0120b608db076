"""Zero-shot parsing of natural-language instructions into executable
method calls over simulated application states."""

from .errors import (
    ConfigError,
    DataError,
    DomainLogicError,
    ExecutionError,
    GenerationError,
    NlinstructError,
)
from .kb import Entity, IntVal, State, SymVal, TextVal, Triple

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DomainLogicError",
    "Entity",
    "ExecutionError",
    "GenerationError",
    "IntVal",
    "NlinstructError",
    "State",
    "SymVal",
    "TextVal",
    "Triple",
    "__version__",
]
