"""Rescaled model definition: parameters, coupling matrices, initial moments.

All quantities live in the dimensionless units based on the system's
spreading time scale T and length scale lambda = sqrt(T*hbar/M_S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    NegativeViscosity,
    NonPositive,
    SingularLagrangian,
    UncertaintyViolation,
)

__all__ = [
    "MeasurementConfig",
    "CouplingMatrices",
    "GaussianMoments",
    "validate_config",
    "build_coupling_matrices",
    "gaussian_state_moments",
]


@dataclass(frozen=True)
class MeasurementConfig:
    """Rescaled parameters of the open pointer-based measurement.

    Parameters
    ----------
    kappa1, kappa2:
        Rescaled couplings of the system position (momentum) to the first
        (second) pointer momentum.
    mass_ratio:
        Pointer-to-system mass ratio M0 > 0.
    eta:
        Frequency-independent bath viscosity; eta = 0 selects the closed
        (environment-free) measurement.
    omega_c:
        Algebraic cutoff frequency of the Ohmic bath spectral density.
    inv_beta:
        Rescaled thermal energy of the bath.
    """

    kappa1: float = 2.0
    kappa2: float = 2.0
    mass_ratio: float = 1.0
    eta: float = 0.25
    omega_c: float = 20.0
    inv_beta: float = 1.0


def validate_config(cfg: MeasurementConfig) -> MeasurementConfig:
    """Check the model invariants and return ``cfg`` unchanged.

    Raises
    ------
    SingularLagrangian
        If kappa2**2 equals the mass ratio (no nonsingular Lagrangian).
    NonPositive
        If the mass ratio, cutoff frequency, or thermal energy is <= 0.
    NegativeViscosity
        If eta < 0.
    ConfigError
        If a product of couplings that enters the generator overflows.
    """
    if cfg.mass_ratio <= 0:
        raise NonPositive(f"mass_ratio must be > 0, got {cfg.mass_ratio}")
    if cfg.omega_c <= 0:
        raise NonPositive(f"omega_c must be > 0, got {cfg.omega_c}")
    if cfg.inv_beta <= 0:
        raise NonPositive(f"inv_beta must be > 0, got {cfg.inv_beta}")
    if cfg.eta < 0:
        raise NegativeViscosity(f"eta must be >= 0, got {cfg.eta}")
    # products, not powers: a float power overflows with an exception, not inf
    for key, name, value in (
        ("kappa1", "kappa1**2/mass_ratio", cfg.kappa1 * cfg.kappa1 / cfg.mass_ratio),
        ("kappa2", "kappa2**2/mass_ratio", cfg.kappa2 * cfg.kappa2 / cfg.mass_ratio),
        ("omega_c", "eta*omega_c**2", cfg.eta * cfg.omega_c * cfg.omega_c),
    ):
        if not np.isfinite(value):
            raise ConfigError(f"config key '{key}' is out of range: {name} overflows")
    if cfg.kappa2 * cfg.kappa2 == cfg.mass_ratio:
        raise SingularLagrangian(
            f"kappa2**2 == mass_ratio ({cfg.mass_ratio}): singular Lagrangian"
        )
    return cfg


@dataclass(frozen=True)
class CouplingMatrices:
    """Effective mass matrix M, holding -a at [0, 0], and damping coupling D."""

    mass_matrix: np.ndarray
    damping_matrix: np.ndarray

    @cached_property
    def mass_inverse(self) -> np.ndarray:
        """M^-1, inverted on the first read only."""
        m_inv = np.linalg.inv(self.mass_matrix)
        m_inv.flags.writeable = False
        return m_inv


def build_coupling_matrices(cfg: MeasurementConfig) -> CouplingMatrices:
    """Assemble the 3x3 coupling matrices of the equations of motion.

    a = M0 / (kappa2**2 - M0); M mixes the second derivatives of system
    and second pointer, D carries the single velocity coupling kappa1.
    """
    m0 = cfg.mass_ratio
    a = m0 / (cfg.kappa2 * cfg.kappa2 - m0)
    mass = np.array(
        [
            [-a, 0.0, a * cfg.kappa2],
            [0.0, m0, 0.0],
            [a * cfg.kappa2, 0.0, -a * m0],
        ]
    )
    damping = np.zeros((3, 3))
    damping[1, 0] = cfg.kappa1
    return CouplingMatrices(mass_matrix=mass, damping_matrix=damping)


@dataclass(frozen=True)
class GaussianMoments:
    """Second moments of the initial Gaussian states, whose means vanish.

    ``cov_j`` is the 4x4 covariance of J = (X1, X2, P1, P2) at t = 0;
    ``var_xs0`` and ``var_ps0`` are the initial system variances.
    """

    cov_j: np.ndarray
    var_xs0: float
    var_ps0: float

    @property
    def dx_s0(self) -> float:
        return float(np.sqrt(self.var_xs0))

    @property
    def dp_s0(self) -> float:
        return float(np.sqrt(self.var_ps0))


def _check_pair(var_x: float, var_p: float, corr: float, label: str) -> None:
    if var_x <= 0 or var_p <= 0:
        raise NonPositive(f"{label}: variances must be > 0")
    floor = 0.25 + corr * corr
    if var_x * var_p < floor - 1e-12:
        raise UncertaintyViolation(
            f"{label}: DX^2*DP^2 = {var_x * var_p:.6g} < 1/4 + c^2 = {floor:.6g}"
        )


def gaussian_state_moments(
    system_position_variance: float = 1.0,
    pointer_position_variances: tuple[float, float] = (1.0, 1.0),
    system_momentum_variance: float | None = None,
    pointer_momentum_variances: tuple[float, float] | None = None,
    pointer_correlations: tuple[float, float] = (0.0, 0.0),
) -> GaussianMoments:
    """Moments of initially uncorrelated Gaussian system and pointer states.

    By default each state is a pure Gaussian with a real-valued wave
    function, so the momentum variance is the minimum-uncertainty value
    1/(4*DX^2) and the symmetrized position-momentum correlation vanishes.
    Explicit momentum variances or correlations may be supplied as long as
    DX^2*DP^2 >= 1/4 + c^2 holds per state.
    """
    vxs = float(system_position_variance)
    vx1, vx2 = (float(v) for v in pointer_position_variances)
    if min(vxs, vx1, vx2) <= 0:
        raise NonPositive("position variances must be > 0")
    vps = 0.25 / vxs if system_momentum_variance is None else float(system_momentum_variance)
    _check_pair(vxs, vps, 0.0, "system")

    if pointer_momentum_variances is None:
        vp1, vp2 = 0.25 / vx1, 0.25 / vx2
    else:
        vp1, vp2 = (float(v) for v in pointer_momentum_variances)
    c1, c2 = (float(c) for c in pointer_correlations)
    _check_pair(vx1, vp1, c1, "pointer 1")
    _check_pair(vx2, vp2, c2, "pointer 2")

    cov = np.diag([vx1, vx2, vp1, vp2]).astype(float)
    cov[0, 2] = cov[2, 0] = c1
    cov[1, 3] = cov[3, 1] = c2
    return GaussianMoments(cov_j=cov, var_xs0=vxs, var_ps0=vps)
