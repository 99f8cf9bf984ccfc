"""Exception types shared across the package."""


class EtacurvError(Exception):
    """Base class for all package errors."""


class ConeViolationError(EtacurvError):
    """An eigenvalue vector left the admissible cone.

    Carries the first failing symmetric-function order ``j`` (sigma_j <= 0),
    the offending value, and, when known, the grid node where it happened.
    """

    def __init__(self, j, sigma_value, node=None):
        self.j = j
        self.sigma_value = sigma_value
        self.node = node
        where = f" at node {node}" if node is not None else ""
        super().__init__(
            f"cone violation{where}: sigma_{j} = {sigma_value:.6g} <= 0"
        )


class DomainError(EtacurvError):
    """Input field violates a domain requirement (e.g. rho <= 0)."""


class PreconditionError(EtacurvError):
    """A solve was requested with data that fails its preconditions."""


class ConfigError(EtacurvError):
    """Invalid run configuration; message names the offending key path."""


class NewtonDiverged(EtacurvError):
    """Damped Newton could not decrease the residual, or its step no
    longer changes the iterate.

    ``last_iterate`` holds the last accepted state so callers can inspect
    or restart from it.
    """

    def __init__(self, message, last_iterate=None, report=None):
        self.last_iterate = last_iterate
        self.report = report
        super().__init__(message)


class ConeExit(NewtonDiverged):
    """No damping fraction kept the iterate inside the admissible cone."""


class ContinuationStuck(EtacurvError):
    """Homotopy step size underflowed; carries the partial trace and the
    NewtonReport of the attempt that underflowed."""

    def __init__(self, message, trace, last_rho=None, report=None):
        self.trace = trace
        self.last_rho = last_rho
        self.report = report
        super().__init__(message)
