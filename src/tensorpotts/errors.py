"""Exception hierarchy shared across the package.

``PreconditionError`` subclasses signal bad inputs (CLI exit code 2),
``NonConvergenceError`` signals a numeric routine that failed to converge
(CLI exit code 3).
"""


class TensorPottsError(Exception):
    """Base class for all package errors."""


class PreconditionError(TensorPottsError):
    """An operation was called outside its documented domain."""


class DomainError(PreconditionError):
    """A scalar argument lies outside the admissible range."""


class ShapeError(PreconditionError):
    """An array argument violates a structural invariant."""


class ClassificationError(PreconditionError):
    """A law or matrix was requested at a point of the wrong phase class."""


class SupportSizeError(PreconditionError):
    """A support-sized array would need more bytes than the exact engine's
    budget (``exact.SUPPORT_BYTES``); raised before anything is allocated."""

    def __init__(self, needed: float, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"the support needs {needed:.3g} bytes, over the budget of {budget} bytes")


class DegenerateIntervalError(PreconditionError):
    """A plug-in confidence interval is degenerate (near-critical data)."""


class NonConvergenceError(TensorPottsError):
    """An iterative routine exhausted its budget without converging."""
