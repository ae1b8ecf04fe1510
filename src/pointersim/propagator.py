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

Every e^{Ft} comes from one :class:`ExpTable` (Van Loan, IEEE TAC 23:395,
1978): full rows of e^{F s_j} on a uniform grid s_j = j h, and a forward
Taylor step from the node below, e^{F(s_j + d)} = e^{F s_j} sum_k F^k d^k / k!.
The generator of the closed measurement (eta = 0) is nilpotent, so its
series ends at F^3 and its table is the single node s = 0, exact at any t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, ExpNonConvergence, SingularInference, SingularMass
from .model import CouplingMatrices, MeasurementConfig, build_coupling_matrices

__all__ = [
    "AugmentedGenerator",
    "ExpTable",
    "build_generator",
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
#: Taylor terms of a step; with h * rho(F) <= 1/2 the first omitted term
#: is below (1/2)^14 / 14! < 1e-15 of the step's scale
_TAYLOR_TERMS = 14
#: Taylor terms of the closed generator: its dynamics are cubic in t, F^4 = 0
_CLOSED_TERMS = 4
#: most grid nodes a table may hold, as many as a time grid may have points;
#: the default config, at omega_c*t_max = 60, needs 120
_MAX_NODES = 100_000


@dataclass(frozen=True)
class AugmentedGenerator:
    """Constant-coefficient generator of the augmented linear system."""

    generator: np.ndarray  # (n, n)
    noise_map: np.ndarray  # (n, 3): injects the stochastic force
    coupling: CouplingMatrices
    cfg: MeasurementConfig


def _second_order_blocks(cfg: MeasurementConfig, coup: CouplingMatrices):
    """M^-1 times the position and velocity couplings of the bare dynamics."""
    m_inv = coup.mass_inverse
    d = coup.damping_matrix
    pos = np.zeros((3, 3))
    pos[0, 0] = cfg.kappa1 * cfg.kappa1 / cfg.mass_ratio
    blocks = m_inv, m_inv @ pos, m_inv @ (d - d.T)
    if not all(np.isfinite(b).all() for b in blocks):
        raise SingularMass("M^-1 times the couplings is not finite: singular M or huge kappa1")
    return blocks


def build_generator(cfg: MeasurementConfig, mode: str = "renormalized") -> AugmentedGenerator:
    """Assemble the augmented generator for the requested dynamics mode.

    For eta = 0, and only then, no memory variables are needed: the generator
    is the 6-dimensional closed (nilpotent) position/velocity dynamics.
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
            gen[6:8, 0:3] = eta * wc * wc * _S_SEL.T  # the product validate_config checks
        gen[6:8, 6:8] = -wc * np.eye(2)

    noise = np.zeros((n, 3))
    noise[3:6, :] = m_inv
    return AugmentedGenerator(generator=gen, noise_map=noise, coupling=coup, cfg=cfg)


def _taylor(coeffs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] d^k for every step d, stacked along axis 0; one small
    matmul per step, so a step has the same bits alone as in a batch."""
    powers = np.empty((len(coeffs), d.size))
    powers[0] = 1.0
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], d, out=powers[k])
    terms = np.ascontiguousarray(powers.T)[:, None, :] @ coeffs.reshape(len(coeffs), -1)
    return terms.reshape((d.size,) + coeffs.shape[1:])


class ExpTable:
    """e^{Fs} of the augmented generator on [0, t_max].

    The grid step is h = 1/(2 rho(F)), at most 1/32, with rho the spectral
    radius of the generator; rho only sets the scale.  Off the grid every
    value is a forward Taylor step of 14 terms from the node below.  The
    closed (6-dimensional) generator has F^4 = 0: its series is the cubic,
    exact at any step, and its table the node s = 0 alone, at any t_max.
    """

    def __init__(self, gen: AugmentedGenerator, t_max: float):
        f, dim = gen.generator, gen.generator.shape[0]
        self.gen, self.t_max = gen, t_max
        closed = dim == 6  # no memory variables: eta = 0
        c_exp = [np.eye(dim)]  # F^k / k!
        for k in range(1, _CLOSED_TERMS if closed else _TAYLOR_TERMS):
            c_exp.append(c_exp[-1] @ f / k)
        self._c_exp = np.array(c_exp)
        rho = float(np.abs(np.linalg.eigvals(f)).max())
        self.step = 1.0 / max(2.0 * rho, 32.0)
        if closed:
            n, self._last = 0, np.inf
        elif t_max / self.step <= _MAX_NODES:
            n = self._last = max(1, int(np.ceil(t_max / self.step)))
        else:
            raise ConfigError(
                f"the propagator table on [0, {t_max:g}] needs {t_max / self.step:.3g} nodes "
                f"at rho(F) = {rho:.3g}, more than {_MAX_NODES}; lower omega_c*t_max "
                f"(= {gen.cfg.omega_c * t_max:.3g}), eta or the couplings"
            )
        self._exp = expm(np.arange(n + 1)[:, None, None] * self.step * f)  # e^{F s_j}

    def _split(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Node index j and forward step d = s - s_j of every time s."""
        s = np.asarray(s, dtype=float).ravel()
        j = np.floor(s / self.step)
        if s.size and not (s.min() >= 0.0 and j.max() <= self._last):
            raise ValueError(f"times outside the tabulated range [0, {self.t_max}]")
        j = np.minimum(j, len(self._exp) - 1).astype(np.intp)
        return j, s - j * self.step

    def exp(self, s, rows=slice(None)) -> np.ndarray:
        """The rows ``rows`` of e^{Fs} at the times s, shaped s.shape + (rows,
        dim); ExpNonConvergence at the first time where one is not finite."""
        s = np.asarray(s, dtype=float)
        j, d = self._split(s)
        e = _taylor(self._c_exp, d)
        # the one node of an exact table is e^{F*0} = I
        e = e[:, rows] if len(self._exp) == 1 else self._exp[j, rows] @ e
        bad = ~np.isfinite(e).all(axis=(-2, -1))
        if bad.any():
            raise ExpNonConvergence(f"matrix exponential not finite at t = {s.ravel()[bad][0]}")
        return e.reshape(s.shape + e.shape[1:])

    def propagators(self, t):
        """(K(t), G(t), Gdot(t)), each t.shape + (3, 3).

        Positions respond to initial positions both directly and through the
        initial velocities V(0) = M^-1 (P(0) + D X(0)), hence
        K = E_xx + G D with G = E_xv M^-1; Gdot comes from the velocity rows.
        """
        e, m_inv = self.exp(t, slice(0, 6)), self.gen.coupling.mass_inverse
        g = e[..., 0:3, 3:6] @ m_inv
        return e[..., 0:3, 0:3] + g @ self.gen.coupling.damping_matrix, g, e[..., 3:6, 3:6] @ m_inv


def propagate(gen: AugmentedGenerator, t: float | np.ndarray):
    """Propagators (K(t), G(t), Gdot(t)) at a time t >= 0, each (3, 3), or
    at every time of a 1-D array t, each stacked as (n, 3, 3): reads of one
    table on [0, max t]."""
    return ExpTable(gen, float(np.max(t, initial=0.0))).propagators(t)


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
