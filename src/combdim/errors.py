"""Shared exception types for the combdim package."""


class FamilyError(ValueError):
    """Invalid family or measure data (bad values, weights, file contents)."""


class RationalizationError(ValueError):
    """Weights are not representable as k/M within the denominator bound."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotSeparatedError(ValueError):
    """A family violated a pairwise-separation precondition."""

    def __init__(self, message, pair=None, distance=None):
        super().__init__(message)
        self.pair = pair
        self.distance = distance


class BudgetError(RuntimeError):
    """An exact enumeration exceeded its configured budget.  A shattering
    walk gives the support it was extending (None when only counting) and
    its dimension."""

    def __init__(self, message, support=None, dimension=None):
        super().__init__(message)
        self.support, self.dimension = support, dimension


class ExtractionError(RuntimeError):
    """Coordinate extraction exhausted its attempt budget."""

    def __init__(self, message, attempts=0, best_separation=None):
        super().__init__(message)
        self.attempts = attempts
        self.best_separation = best_separation


class SolverError(RuntimeError):
    """The simplex solver failed: its point broke a constraint it was
    checked against, or it hit its iteration cap."""


class IterationCapError(SolverError):
    """The simplex solver hit its iteration cap."""


class PipelineError(RuntimeError):
    """A stage assertion failed inside the full proof-pipeline run."""

    def __init__(self, stage, message, certificate=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.certificate = certificate
