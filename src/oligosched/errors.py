"""Exception types shared across the library."""


class OligoschedError(Exception):
    """Base class for all library-specific failures."""


class InvalidParamsError(OligoschedError, ValueError):
    """Inputs violate a documented precondition."""


class NonStationaryError(OligoschedError):
    """The backlog recursion has no stationary distribution for these inputs."""


class NoSolutionError(OligoschedError):
    """No admissible coefficient solution exists (risk-sensitive system)."""


class NoStableRootError(OligoschedError):
    """The congestion cubic has no real root in (0,1); only at gamma = q2 = 1,
    where its one real root is a = 1."""


class InvalidMarginError(OligoschedError, ValueError):
    """The standardized tail margin is nonpositive; the bound is vacuous."""


class UnstableError(OligoschedError):
    """The closed loop is not certified stable (spectral radius below 1 - margin)."""


class SingularRowError(OligoschedError):
    """A row of the best-response map has a vanishing denominator."""

    def __init__(self, agent_type: int, periods_left: int, denominator: float):
        self.agent_type = agent_type
        self.periods_left = periods_left
        self.denominator = denominator
        super().__init__(
            f"singular best-response denominator {denominator:.3e} for agent "
            f"(type={agent_type}, periods_left={periods_left})"
        )


class NotConvergedError(OligoschedError):
    """Fixed-point iteration exhausted its budget; carries the residual trace."""

    def __init__(self, message: str, residuals=None):
        self.residuals = list(residuals) if residuals is not None else []
        if self.residuals:
            tail = ", ".join(f"{r:.3e}" for r in self.residuals[-5:])
            message = f"{message} (last residuals: {tail})"
        super().__init__(message)


class FixedPointUnstableError(UnstableError):
    """A fixed point was found but not certified stable; ``solution`` carries it."""

    def __init__(self, message: str, solution=None):
        self.solution = solution
        super().__init__(message)


class NotAnEquilibriumError(UnstableError):
    """A certified-stable fixed point at which some agent's one-shot
    deviation cost is not convex, so its best-response row maximizes that
    cost; ``solution`` carries it.  An UnstableError, as a refused
    certificate, so the CLI exits 3."""

    def __init__(self, message: str, solution=None):
        self.solution = solution
        super().__init__(message)


class InsufficientSamplesError(OligoschedError):
    """A conditioning cell holds too few samples for a tail estimate."""
