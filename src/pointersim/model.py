"""Rescaled model definition: parameters, coupling matrices, initial moments.

All quantities live in the dimensionless units based on the system's
spreading time scale T and length scale lambda = sqrt(T*hbar/M_S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

__all__ = [
    "MeasurementConfig",
    "CouplingMatrices",
    "GaussianMoments",
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

    Construction, and so every ``dataclasses.replace``, checks the model's
    invariants and raises ConfigError naming the field: every field is
    finite, mass_ratio, omega_c and inv_beta are > 0, eta >= 0, the
    coupling products that enter the generator are finite, and
    kappa2**2 != mass_ratio (a nonsingular Lagrangian).
    """

    kappa1: float = 2.0
    kappa2: float = 2.0
    mass_ratio: float = 1.0
    eta: float = 0.25
    omega_c: float = 20.0
    inv_beta: float = 1.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("mass_ratio", "omega_c", "inv_beta"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if not self.eta >= 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        # products, not powers: a float power overflows with an exception, not inf
        for key, name, value in (
            ("kappa1", "kappa1**2/mass_ratio", self.kappa1 * self.kappa1 / self.mass_ratio),
            ("kappa2", "kappa2**2/mass_ratio", self.kappa2 * self.kappa2 / self.mass_ratio),
            ("omega_c", "eta*omega_c**2", self.eta * self.omega_c * self.omega_c),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"config key '{key}' is out of range: {name} overflows")
        if self.kappa2 * self.kappa2 == self.mass_ratio:
            raise ConfigError(
                f"kappa2**2 == mass_ratio ({self.mass_ratio}): singular Lagrangian"
            )


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


def _finite(name: str, value):
    """``value``, a number or a pair of them, as floats; ConfigError naming
    the argument if one is not finite."""
    floats = np.asarray(value, dtype=float).tolist()
    if not np.isfinite(floats).all():
        raise ConfigError(f"{name} must be finite, got {value}")
    return floats


def _check_pair(var_x: float, var_p: float, corr: float, label: str) -> None:
    # written so that NaN fails each check
    if not (var_x > 0 and var_p > 0):
        raise ConfigError(f"{label}: variances must be > 0")
    floor = 0.25 + corr * corr
    if not var_x * var_p >= floor - 1e-12:
        raise ConfigError(
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
    DX^2*DP^2 >= 1/4 + c^2 holds per state.  Every argument must be finite;
    ConfigError names the first that is not.
    """
    vxs = _finite("system_position_variance", system_position_variance)
    vx1, vx2 = _finite("pointer_position_variances", pointer_position_variances)
    if not all(v > 0 for v in (vxs, vx1, vx2)):
        raise ConfigError("position variances must be > 0")
    vps = 0.25 / vxs
    if system_momentum_variance is not None:
        vps = _finite("system_momentum_variance", system_momentum_variance)
    _check_pair(vxs, vps, 0.0, "system")

    if pointer_momentum_variances is None:
        vp1, vp2 = 0.25 / vx1, 0.25 / vx2
    else:
        vp1, vp2 = _finite("pointer_momentum_variances", pointer_momentum_variances)
    c1, c2 = _finite("pointer_correlations", pointer_correlations)
    _check_pair(vx1, vp1, c1, "pointer 1")
    _check_pair(vx2, vp2, c2, "pointer 2")

    cov = np.diag([vx1, vx2, vp1, vp2]).astype(float)
    cov[0, 2] = cov[2, 0] = c1
    cov[1, 3] = cov[3, 1] = c2
    return GaussianMoments(cov_j=cov, var_xs0=vxs, var_ps0=vps)
