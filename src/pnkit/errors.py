"""Exception types shared across the package, and its one converter:
every JSON spec field and schedule argument is read through `converted`,
so a value that fails to convert raises an `InvalidArgumentError` whose
message starts with the field's name (and the CLI exits 2)."""


class PnkitError(Exception):
    """Base class for all pnkit errors."""


class InvalidArgumentError(PnkitError, ValueError):
    """An argument violates an operation's contract."""


class TheoremViolationError(PnkitError, RuntimeError):
    """An existence guarantee failed to materialize on a search grid.

    Raised when the one grid a search scans holds no witness.  This signals
    an implementation or configuration defect and is never swallowed; the CLI
    maps it to a dedicated exit code so CI can distinguish it from plain
    validation errors.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def converted(field: str, conv, value):
    """conv(value), failing with an InvalidArgumentError that names the
    field: a missing key, a wrong type, a bad value (a refusal that
    `conv` raises itself included) or an integer too large for a float."""
    try:
        return conv(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{field}: {exc}") from exc
