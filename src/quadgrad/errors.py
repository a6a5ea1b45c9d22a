"""Exception hierarchy shared by all quadgrad modules."""


class QuadgradError(Exception):
    """Base class for all quadgrad errors."""


class ExponentOutOfRange(QuadgradError):
    """An integrability/growth exponent violates its admissible range."""


class DomainError(QuadgradError):
    """A scalar argument lies outside the domain of the formula."""


class DeltaOutOfRange(QuadgradError):
    """Substitution parameter outside the interval where the formula is meaningful."""


class SmallnessViolated(QuadgradError):
    """One of the two smallness conditions on the data fails."""


class NonpositiveDelta1(SmallnessViolated):
    """The coercivity left over after absorbing the zeroth-order norm is <= 0.

    The first smallness condition then fails too.
    """


class BracketError(QuadgradError):
    """A root bracket that must hold by construction does not; inputs are corrupt."""


class NoTwoZeros(QuadgradError):
    """The parabola-like profile has no two distinct zeros at this parameter."""


class TransformOverflowError(QuadgradError):
    """Exponential substitution would overflow double precision."""


class CertificateError(QuadgradError):
    """A nonlinearity model's growth certificate is inconsistent or violated."""


class FieldValidationError(QuadgradError):
    """A grid field violates its structural invariants (finiteness, symmetry, SPD)."""


class SolverFailure(QuadgradError):
    """A solve stopped short of its tolerance: reported, never retried."""

    def __init__(self, message, residual=None, iterations=None, traces=None):
        super().__init__(message)
        self.residual = residual      # of the loop that gave up
        self.iterations = iterations  # that loop's iterations
        self.traces = traces or []    # finished levels', then the failing one's


class IterativeSolveFailure(SolverFailure):
    """Conjugate gradients failed to reach the requested residual."""


class NewtonStall(SolverFailure):
    """Semismooth Newton line search exhausted before reaching tolerance."""


class MaxOuterIterations(SolverFailure):
    """Fixed-point iteration did not converge within the iteration budget."""


class ConfigError(QuadgradError):
    """Experiment configuration is malformed or inconsistent with its fields."""
