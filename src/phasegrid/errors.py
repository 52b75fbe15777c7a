"""Exception types shared across the package."""


class SingularPointError(ValueError):
    """A potential was evaluated at (or a grid contains) a singular point."""


class NotAvailableError(ValueError):
    """The requested quantity has no implementation for this potential kind."""


class IllConditionedError(RuntimeError):
    """A metric or overlap matrix is numerically singular beyond tolerance."""


class NumericFailureError(RuntimeError):
    """An eigensolver or other numeric routine failed to converge."""


class DegenerateEstimateError(RuntimeError):
    """A Monte Carlo estimate collapsed (zero hits)."""


class UnboundedOrbitError(ValueError):
    """Classical motion at the requested energy is not bounded."""


class BelowWellBottomError(ValueError):
    """The requested energy is at or below the potential minimum: no orbit."""


class BudgetExceededError(RuntimeError):
    """A search or enumeration exceeded its size budget.

    Carries whatever partial results were gathered before the budget ran out.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
