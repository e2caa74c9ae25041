"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed numerical input: wrong shape, non-finite entries, bad file.

    ``field`` names the offending ``Problem`` field, when there is one.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DomainError(ValueError):
    """A vector lies outside the subspace an operation requires.

    ``code`` is a short machine-readable tag used by the CLI when it turns
    the exception into a structured report entry.
    """

    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code


class ConstructionError(ValueError):
    """A relation or operator cannot be built from the given data."""


class CapabilityError(ValueError):
    """The requested combination is outside what this implementation supports."""


class ConvergenceError(RuntimeError):
    """An iterative solve exhausted its budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OracleFailure(RuntimeError):
    """A reference solver found no consistent solution, or an ambiguous one."""


class ConfigError(ValueError):
    """Bad run configuration. ``field`` points at the offending entry."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
