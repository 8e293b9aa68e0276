"""Exception types shared across the workbench."""


class ConvexLabError(Exception):
    """Base class for all workbench errors."""


class EmptyInputError(ConvexLabError):
    """An operation received an empty set where a nonempty one is required."""


class DomainError(ConvexLabError):
    """A function was applied outside its exact or convex domain."""


class BudgetError(ConvexLabError):
    """An input is beyond desk scale; raised before any work on it starts."""


def over_budget(what: str, value: int, budget: str, limit: int) -> BudgetError:
    """BudgetError naming the desk-scale `budget` that `value` exceeds; the caller raises it."""
    return BudgetError(f"{what} {value} exceeds the desk-scale budget {budget} = {limit}")


class ParseError(ConvexLabError):
    """A set file or scalar literal could not be parsed exactly."""

    def __init__(self, message, source=None, line=None):
        self.source = source
        self.line = line
        if source is not None and line is not None:
            message = f"{source}:{line}: {message}"
        super().__init__(message)


class AuditFailure(ConvexLabError):
    """A constant-free inequality check returned FAIL.

    Carries the failing report and the input sets so callers can dump a
    counterexample.
    """

    def __init__(self, report, inputs):
        self.report = report
        self.inputs = dict(inputs)
        super().__init__(f"inequality {report.name!r} FAILED")
