"""Exception hierarchy shared across the package."""


class NlinstructError(Exception):
    """Base class for all package errors."""


class DomainLogicError(NlinstructError):
    """Raised by application logic when a method call is rejected
    (e.g. assigning reports to an employee who is not a manager)."""


class ExecutionError(NlinstructError):
    """Raised when a logical form cannot be executed: empty required
    argument sets, arity or kind mismatches, unexecutable fragments."""


class GenerationError(NlinstructError):
    """Raised when random state-pair generation exhausts its retry budget."""


class ConfigError(NlinstructError):
    """Invalid run configuration (unknown keys, bad values). CLI exit code 2."""


class DataError(NlinstructError):
    """Invalid dataset or model file contents. CLI exit code 3."""
