"""Exception hierarchy for the pointer-measurement simulator: one class per
way a run can end."""


class PointerSimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(PointerSimError, ValueError):
    """Invalid configuration, initial state or search setting (CLI exit 2)."""


class NumericalError(PointerSimError):
    """A numerical routine failed its accuracy contract (CLI exit 3)."""
