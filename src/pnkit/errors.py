"""Exception types shared across the package."""


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
