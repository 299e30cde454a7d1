"""Default budgets and caps of the numeric summation engines, and the
failures that exit 2.

They live apart from `summation` and `regularize` so that the command line
can name them in its help text, argument checks and exit codes without
loading the engines; those modules re-export the errors.
"""

DEFAULT_TERMS = 4000
# The fewest terms of a budget: the iterated means compare estimates at N/4, N/2 and N.
MIN_TERMS = 16
DEFAULT_TOL = 1e-3
DEFAULT_ORDER_CAP = 8
MAX_ORDER_CAP = 12


class _ReportedError(RuntimeError):
    """A failure that carries the ConvergenceReport of the attempt, if any."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotConvergedError(_ReportedError):
    """A required numeric limit did not settle within its budget."""


class NotRegularError(_ReportedError):
    """A required regularized derivative failed to settle within budget."""


class InexactDataError(TypeError):
    """An exact-only construction was fed numerically obtained values."""
