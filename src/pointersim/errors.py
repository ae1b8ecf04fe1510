"""Exception hierarchy for the pointer-measurement simulator: one class per
way a run can end."""


class PointerSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(PointerSimError):
    """Invalid model configuration or initial state (CLI exit 2)."""


class NumericalError(PointerSimError):
    """A numerical routine failed its accuracy contract (CLI exit 3)."""


class BoundaryMinimum(PointerSimError):
    """Scalar minimization hit an edge of the search interval."""
