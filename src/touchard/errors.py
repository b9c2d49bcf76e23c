"""Exception hierarchy shared by every module.

Each class carries the process exit code the CLI maps it to:
2 for domain/range problems, 3 for precision exhaustion, 4 for
internal consistency failures (branch logic, series checks, solvers).
"""


class TouchardError(Exception):
    exit_code = 1


class DomainError(TouchardError):
    """Input outside the mathematical domain of an operation."""

    exit_code = 2


class InvalidPrecisionError(DomainError):
    """A digit count that is not an integer in its range: a context's
    digits outside [30, 4300], or a saddle solve's outside [30, 35000]."""


class CapacityError(DomainError):
    """Structural size limit exceeded (exact-sum degree, working width,
    Stirling rows)."""


class OrderError(DomainError):
    """A series or table was asked for more terms than it holds."""


class RegimeError(DomainError):
    """Evaluation requested inside the exclusion band of a method."""


class StepError(DomainError):
    """Contour step too large to hold the Im psi drift budget."""


class PrecisionExhaustedError(TouchardError):
    """A certified sum still failed its bound after the rerun cap.

    The message names the sum that failed, the digits it was to reach and
    its last working precision.
    """

    exit_code = 3


class InternalConsistencyError(TouchardError):
    exit_code = 4


class BranchError(InternalConsistencyError):
    """A square root or logarithm landed on the wrong sheet."""


class SeriesConsistencyError(InternalConsistencyError):
    """Series coefficients failed an exact cross-check."""


class SolverError(InternalConsistencyError):
    """Iterative root finder failed to converge or certify its residual."""
