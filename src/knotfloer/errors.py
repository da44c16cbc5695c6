"""Exception hierarchy shared across the package."""


class KnotFloerError(Exception):
    """Base class for all package errors."""


class ValidationError(KnotFloerError):
    """A complex, chain map, or input file violates a structural rule."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(KnotFloerError):
    """Syntax error in a knot expression, annotated with a position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class FileFormatError(KnotFloerError):
    """Malformed complex file; message carries entry/field context."""


class UnsupportedInputError(KnotFloerError):
    """Input outside the supported class (e.g. upsilon of a file complex)."""


class ConsistencyError(KnotFloerError):
    """An internal cross-check between independently computed values failed.

    This always indicates a bug, never bad user input.
    """
