"""Time-domain propagators of the generalized Langevin dynamics.

The exponential memory kernel turns the integro-differential equations of
motion into a constant-coefficient first-order system with two auxiliary
memory variables, one per pointer.  Matrix exponentials of the augmented
generator then yield the position propagators K(t), G(t), their time
derivative, and the 2x2 / 2x4 response matrices A(t) and B(t) used for
the inference of the system observables.

State ordering of the augmented system: (X_S, X_1, X_2, V_S, V_1, V_2,
y_1, y_2) with velocities V = dX/dt and memory variables y that start at
zero.  In "renormalized" mode y accumulates the velocity convolution
eta*omega_c * int exp(-omega_c(t-s)) V_k(s) ds; in "raw" mode it holds the
position convolution with the full dissipation kernel (potential shift
and slip term retained).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ExpNonConvergence, SingularInference, SingularMass
from .model import CouplingMatrices, MeasurementConfig, build_coupling_matrices

__all__ = [
    "AugmentedGenerator",
    "build_generator",
    "checked_expm",
    "checked_inverse",
    "propagate",
    "response_matrices",
]

#: selection matrix sending the two pointer components into 3-vectors
_S_SEL = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
#: |det A| threshold relative to ||A||^2 below which inference fails
_DET_A_RTOL = 1e-12
#: signs that turn the reversed transpose of a 2x2 matrix into its adjugate
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class AugmentedGenerator:
    """Constant-coefficient generator of the augmented linear system."""

    mode: str
    generator: np.ndarray  # (n, n)
    noise_map: np.ndarray  # (n, 3): injects the stochastic force
    coupling: CouplingMatrices
    cfg: MeasurementConfig


def _second_order_blocks(cfg: MeasurementConfig, coup: CouplingMatrices):
    """M^-1 times the position and velocity couplings of the bare dynamics."""
    m_inv = coup.mass_inverse
    d = coup.damping_matrix
    pos = np.zeros((3, 3))
    pos[0, 0] = cfg.kappa1**2 / cfg.mass_ratio
    blocks = m_inv, m_inv @ pos, m_inv @ (d - d.T)
    if not all(np.isfinite(b).all() for b in blocks):
        raise SingularMass("M^-1 times the couplings is not finite: singular M or huge kappa1")
    return blocks


def build_generator(cfg: MeasurementConfig, mode: str = "renormalized") -> AugmentedGenerator:
    """Assemble the augmented generator for the requested dynamics mode.

    For eta = 0 no memory variables are needed and the generator reduces
    to the closed (nilpotent) position/velocity dynamics.
    """
    if mode not in ("renormalized", "raw"):
        raise ValueError(f"unknown mode: {mode!r}")
    coup = build_coupling_matrices(cfg)
    m_inv, pos, vel = _second_order_blocks(cfg, coup)
    eta, wc = cfg.eta, cfg.omega_c

    n = 6 if eta == 0.0 else 8
    gen = np.zeros((n, n))
    gen[0:3, 3:6] = np.eye(3)
    gen[3:6, 0:3] = pos
    gen[3:6, 3:6] = vel
    if eta != 0.0:  # two memory variables, one per pointer
        if mode == "renormalized":
            # memory term enters the force with a minus sign
            gen[3:6, 6:8] = -m_inv @ _S_SEL
            gen[6:8, 3:6] = eta * wc * _S_SEL.T
        else:
            # raw position convolution adds to the force
            gen[3:6, 6:8] = m_inv @ _S_SEL
            gen[6:8, 0:3] = eta * wc**2 * _S_SEL.T
        gen[6:8, 6:8] = -wc * np.eye(2)

    noise = np.zeros((n, 3))
    noise[3:6, :] = m_inv
    return AugmentedGenerator(
        mode=mode, generator=gen, noise_map=noise, coupling=coup, cfg=cfg
    )


def checked_expm(gen: AugmentedGenerator, t: float | np.ndarray) -> np.ndarray:
    """exp(F t) of the augmented generator, checked to be finite; a 1-D
    array t gives the stack of exponentials from one ``expm`` call."""
    t = np.asarray(t, dtype=float)
    e = expm(t[..., None, None] * gen.generator)
    if not np.isfinite(e).all():
        bad = ~np.isfinite(e).all(axis=(-2, -1))
        raise ExpNonConvergence(f"matrix exponential not finite at t = {np.extract(bad, t)[0]}")
    return e


def _extract(gen: AugmentedGenerator, e: np.ndarray):
    """K, G, Gdot from augmented matrix exponentials, one per leading index.

    Positions respond to initial positions both directly and through the
    initial velocities V(0) = M^-1 (P(0) + D X(0)), hence
    K = E_xx + G D with G = E_xv M^-1; Gdot comes from the velocity rows.
    """
    m_inv = gen.coupling.mass_inverse
    d = gen.coupling.damping_matrix
    g = e[..., 0:3, 3:6] @ m_inv
    k = e[..., 0:3, 0:3] + g @ d
    gdot = e[..., 3:6, 3:6] @ m_inv
    return k, g, gdot


def propagate(gen: AugmentedGenerator, t: float | np.ndarray):
    """Propagators (K(t), G(t), Gdot(t)) at a time t >= 0, each (3, 3), or
    at every time of a 1-D array t, each stacked as (n, 3, 3)."""
    if (np.asarray(t) < 0).any():
        raise ValueError("t must be >= 0")
    return _extract(gen, checked_expm(gen, t))


def _det(a: np.ndarray) -> np.ndarray:
    """det A of stacked 2x2 matrices (..., 2, 2)."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def response_matrices(k: np.ndarray, g: np.ndarray):
    """Response matrix A, inhomogeneity B, and det A from K(t), G(t).

    A maps the initial system phase-space point onto the pointer
    positions; B carries the pointer-state leakage.  Stacked K and G give
    stacked A (..., 2, 2), B (..., 2, 4) and det A (...).
    """
    a = np.concatenate([k[..., 1:3, :1], g[..., 1:3, :1]], axis=-1)
    b = np.concatenate([k[..., 1:3, 1:3], g[..., 1:3, 1:3]], axis=-1)
    return a, b, _det(a)


def checked_inverse(a: np.ndarray) -> np.ndarray:
    """A^-1 of 2x2 response matrices (..., 2, 2), the adjugate over det A.

    The one inversion of the inference: both the pointer term A^-1 B and
    the bath term A^-1 Lambda A^-T use it.  Raises SingularInference at the
    first A with |det A| <= _DET_A_RTOL * ||A||^2.
    """
    det_a = _det(a)
    scale = np.maximum((a * a).sum(axis=(-2, -1)), 1e-300)
    singular = np.abs(det_a) <= _DET_A_RTOL * scale
    if singular.any():
        raise SingularInference(
            f"det A = {np.extract(singular, det_a)[0]:.3g} too small for inference"
        )
    adjugate = np.swapaxes(a[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS
    return adjugate / det_a[..., None, None]
