"""Pointer-based simultaneous measurement of position and momentum in a
thermal environment: Gaussian dynamics, uncertainty bounds, and optimal
measurement times."""

from .model import (
    GaussianMoments,
    MeasurementConfig,
    build_coupling_matrices,
    gaussian_state_moments,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "MeasurementConfig",
    "GaussianMoments",
    "validate_config",
    "build_coupling_matrices",
    "gaussian_state_moments",
    "__version__",
]
