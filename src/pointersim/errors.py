"""Exception hierarchy for the pointer-measurement simulator."""


class PointerSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(PointerSimError):
    """Invalid model configuration."""


class SingularLagrangian(ConfigError):
    """kappa2**2 == mass ratio: the Lagrangian of the model is singular."""


class NonPositive(ConfigError):
    """A parameter that must be strictly positive is not."""


class NegativeViscosity(ConfigError):
    """Bath viscosity eta must be non-negative."""


class UncertaintyViolation(ConfigError):
    """Requested Gaussian moments violate the Heisenberg relation."""


class NumericalError(PointerSimError):
    """A numerical routine failed its accuracy contract."""


class EvaluationAtZero(NumericalError):
    """Noise autocorrelation requested at t = 0 (logarithmic divergence)."""


class QuadratureNonConvergence(NumericalError):
    """An adaptive quadrature failed to reach the requested tolerance."""


class SeriesResonance(NumericalError):
    """Cutoff frequency coincides with a Matsubara frequency."""


class SingularMass(NumericalError):
    """Effective mass matrix singular, or the couplings overflow its products."""


class ExpNonConvergence(NumericalError):
    """Matrix exponential produced non-finite or inconsistent output."""


class SingularInference(NumericalError):
    """det A(t) too small: system observables cannot be inferred."""


class NegativeEigenvalue(NumericalError):
    """Noise covariance has an eigenvalue below the PSD tolerance."""


class InsufficientModes(NumericalError):
    """Discrete bath does not reproduce the continuum dissipation kernel."""


class BoundaryMinimum(PointerSimError):
    """Scalar minimization hit an edge of the search interval."""
