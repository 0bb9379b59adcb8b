"""Exception taxonomy: user errors vs internal defects."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iteration failed to meet its accuracy target.

    This signals a defect in the solver, not a misuse by the caller: eval_w
    raises it when Halley's iteration stops short of its fixed residual
    bound, as it does for many W0 arguments above ~5e57.
    """


class StateError(RuntimeError):
    """An operation was invoked in a regime where it is not meaningful."""
