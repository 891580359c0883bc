"""Exception types shared across the package."""


class ArcDesignError(Exception):
    """Base class for all arcdesign errors."""


class InvalidDesignError(ArcDesignError):
    """A design failed structural validation.

    Carries the list of violation messages so callers can print diagnostics.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InfeasibleParametersError(ArcDesignError):
    """Requested dimensions admit no valid design (negative residual df etc.)."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


class ConfigError(ArcDesignError, ValueError):
    """A search option is out of range."""


class DisconnectedDesignError(ArcDesignError):
    """The design is disconnected: some treatment contrasts are not estimable."""


class RankAnomalyError(ArcDesignError):
    """A spectrum had fewer trivial eigenvalues than the structure guarantees."""


class ConstructionError(ArcDesignError):
    """Randomized construction failed to produce a valid design."""


class ParseError(ArcDesignError):
    """A design file could not be parsed; carries line/column context."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
