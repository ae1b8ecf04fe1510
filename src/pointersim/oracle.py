"""Independent brute-force validators for the continuum pipeline.

Two oracles are provided: the exact polynomial propagators of the closed
(eta = 0) measurement, obtained by hand integration of the Heisenberg
equations, and a discrete bath of N harmonic oscillators per pointer under
the complete quadratic Hamiltonian, whose exact flow steps the pointer rows
from a thermal Gaussian state.  The discrete bath contains the potential
shift and the slip term, so it validates the RAW (unrenormalized) continuum
dynamics.  ``GATES`` runs both oracles and three further checks as the
self-test of the ``validate`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, factorial as fact, log

import numpy as np

from .errors import NumericalError
from .kernels import (
    BathKernel,
    dissipation_from_spectral_density,
    dissipation_kernel_scalar,
    noise_autocorrelation,
    spectral_density_scalar,
)
from .model import GaussianMoments, MeasurementConfig, gaussian_state_moments
from .noise import PropagatorTable, lambda_covariance
from .propagator import build_generator, propagate
from .uncertainty import CurveEvaluator

__all__ = [
    "DiscreteBath",
    "discretize_bath",
    "reconstructed_dissipation",
    "closed_form_eta0",
    "build_full_generator",
    "initial_covariance",
    "discrete_pointer_covariance",
    "continuum_pointer_covariance",
    "GATES",
]

#: the stiff tail mode of a discrete bath sits at this multiple of omega_max
_TAIL_FACTOR = 5.0
#: largest error of the reconstructed dissipation kernel, relative to mu(0),
#: that discretize_bath accepts, and the time window where it is checked
_CHECK_TOL = 0.03
_CHECK_WINDOW = (0.2, 2.0)
#: ||N||_1 bound of a scaled N, and [series, j, i] the coefficient of N^(4j+i) in E(N) =
#: sum_(k>=1) N^k/(2k)! and S(N) = sum_(k>=0) N^k/(2k+1)!; omitted terms are < 1e-17 of sums
_THETA = 16.0
_SERIES = np.array([[0.0] + [1 / fact(2 * k) for k in range(1, 16)],
                    [1 / fact(2 * k + 1) for k in range(16)]]).reshape(2, 4, 4)


# ---------------------------------------------------------------------------
# closed (eta = 0) measurement: exact polynomial propagators


def closed_form_eta0(cfg: MeasurementConfig, t: float):
    """Exact (K, G, Gdot) of the closed measurement at time t.

    The pointer momenta are conserved, the system momentum is linear in t,
    and the positions are polynomials of degree up to three; the
    coefficient tables below follow from direct integration of
    dX_S/dt = P_S + (k2/M0) P_2, dX_1/dt = P_1/M0 + (k1/M0) X_S,
    dX_2/dt = P_2/M0 + (k2/M0) P_S, dP_S/dt = -(k1/M0) P_1.
    """
    k1, k2, m0 = cfg.kappa1, cfg.kappa2, cfg.mass_ratio
    k = np.array(
        [
            [1.0, 0.0, 0.0],
            [k1 / m0 * t, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    g = np.array(
        [
            [t, -k1 / (2 * m0) * t**2, k2 / m0 * t],
            [
                k1 / (2 * m0) * t**2,
                t / m0 - k1**2 / (6 * m0**2) * t**3,
                k1 * k2 / (2 * m0**2) * t**2,
            ],
            [k2 / m0 * t, -k1 * k2 / (2 * m0**2) * t**2, t / m0],
        ]
    )
    gdot = np.array(
        [
            [1.0, -k1 / m0 * t, k2 / m0],
            [k1 / m0 * t, 1.0 / m0 - k1**2 / (2 * m0**2) * t**2, k1 * k2 / m0**2 * t],
            [k2 / m0, -k1 * k2 / m0**2 * t, 1.0 / m0],
        ]
    )
    return k, g, gdot


# ---------------------------------------------------------------------------
# discrete bath


@dataclass(frozen=True)
class DiscreteBath:
    """Two disjoint N-oscillator baths, one per pointer (bath mass 1).

    The first ``n_modes`` entries sit on a linear grid up to ``omega_max``
    and resolve the dynamics.  For eta > 0 one extra stiff mode follows
    (``frequencies`` then holds n_modes + 1 entries); it carries the static
    potential shift of the spectral tail beyond the cutoff, which acts
    adiabatically on the slow degrees of freedom.  Without it the shift
    error decays only like 1/omega_max and is amplified exponentially by
    the unstable inverted-potential dynamics.
    """

    n_modes: int
    omega_max: float
    frequencies: np.ndarray  # (N,) or (N+1,) with the tail mode last
    couplings: np.ndarray  # coupling g_j of mode j to its pointer

    @property
    def recurrence_time(self) -> float:
        """2*pi over the mode spacing omega_max / n_modes."""
        return 2.0 * np.pi * self.n_modes / self.omega_max


def reconstructed_dissipation(bath: DiscreteBath, t):
    """mu_N(t) = sum_j g_j^2/omega_j * sin(omega_j t) of the discrete sum.

    Only the resolved linear-grid modes enter: the tail mode oscillates far
    above the band of interest and is excluded from pointwise kernel
    comparisons.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w, g2 = bath.frequencies[: bath.n_modes], bath.couplings[: bath.n_modes] ** 2
    return np.sin(np.outer(t, w)) @ (g2 / w)


def discretize_bath(
    cfg: MeasurementConfig,
    n_modes: int = 400,
    omega_max: float | None = None,
) -> DiscreteBath:
    """Equal-spacing midpoint discretization of the Ohmic spectral density.

    Mode couplings are g_j^2 = omega_j * I(omega_j) * d_omega so that the
    discrete sine sum reproduces the continuum dissipation kernel.  The
    default cutoff keeps the mode spacing at omega_c / 20 so that the
    recurrence time stays fixed while more modes extend the frequency
    coverage.  For eta > 0 one stiff mode at ``_TAIL_FACTOR * omega_max``
    is appended whose coupling makes the total static potential shift
    exactly eta * omega_c; its dynamical effect on the slow modes is of
    order (omega / omega_tail)^2.  The kernel reconstruction is verified
    to ``_CHECK_TOL`` on ``_CHECK_WINDOW`` (which must end before the
    recurrence time); failure raises :class:`NumericalError`.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    omega_max = omega_max or n_modes * cfg.omega_c / 20.0
    if omega_max <= cfg.omega_c:
        raise ValueError("omega_max must exceed omega_c")
    dw = omega_max / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    kernel = BathKernel.from_config(cfg)
    g2 = w * spectral_density_scalar(w, kernel) * dw
    if cfg.eta > 0:
        w_tail = _TAIL_FACTOR * omega_max
        g2_tail = w_tail**2 * (cfg.eta * cfg.omega_c - np.sum(g2 / w**2))
        if g2_tail < 0:
            raise NumericalError("discrete shift exceeds the continuum value")
        w = np.append(w, w_tail)
        g2 = np.append(g2, g2_tail)
    bath = DiscreteBath(
        n_modes=n_modes,
        omega_max=omega_max,
        frequencies=w,
        couplings=np.sqrt(g2),
    )

    if cfg.eta > 0:
        if bath.recurrence_time < 2.0 * _CHECK_WINDOW[1]:
            raise NumericalError(
                f"recurrence time {bath.recurrence_time:.3g} shorter than "
                f"2x the validation window end {_CHECK_WINDOW[1]}"
            )
        ts = np.linspace(*_CHECK_WINDOW, 64)
        mu_n = reconstructed_dissipation(bath, ts)
        mu = np.asarray(dissipation_kernel_scalar(ts, kernel))
        err = float(np.max(np.abs(mu_n - mu))) / float(
            dissipation_kernel_scalar(0.0, kernel)
        )
        if err > _CHECK_TOL:
            raise NumericalError(
                f"discrete dissipation kernel off by {err:.3g} (> {_CHECK_TOL}) "
                f"on t in {list(_CHECK_WINDOW)}"
            )
    return bath


def build_full_generator(cfg: MeasurementConfig, bath: DiscreteBath) -> np.ndarray:
    """Classical-equations generator F of the complete quadratic model.

    State ordering: (X_S, X_1, X_2, q_(bath 1), q_(bath 2),
    P_S, P_1, P_2, k_(bath 1), k_(bath 2)); F = J_c H with the canonical
    form J_c = [[0, I], [-I, 0]] and the symmetric Hamiltonian matrix H.
    """
    n = bath.frequencies.size
    d = 3 + 2 * n  # positions
    h = np.zeros((2 * d, 2 * d))
    k1, k2, m0 = cfg.kappa1, cfg.kappa2, cfg.mass_ratio

    ip = d  # momentum offset
    h[ip + 0, ip + 0] = 1.0
    h[ip + 1, ip + 1] = 1.0 / m0
    h[ip + 2, ip + 2] = 1.0 / m0
    h[0, ip + 1] = h[ip + 1, 0] = k1 / m0
    h[ip + 0, ip + 2] = h[ip + 2, ip + 0] = k2 / m0
    for b, ptr in ((0, 1), (1, 2)):  # bath b couples to pointer index ptr
        idx = np.arange(3 + b * n, 3 + (b + 1) * n)
        h[idx, idx] = bath.frequencies**2
        h[idx + d, idx + d] = 1.0
        h[idx, ptr] = bath.couplings
        h[ptr, idx] = bath.couplings
    f = np.roll(h, d, axis=0)  # the row blocks of J_c H: H[d:], then -H[:d]
    f[d:] *= -1.0
    return f


def thermal_mode_variances(bath: DiscreteBath, inv_beta: float):
    """Per-mode thermal (q, k) variances, coth(beta*w/2)/(2w) and w*.../2."""
    occ = 1.0 / np.tanh(0.5 * bath.frequencies / inv_beta)
    return occ / (2.0 * bath.frequencies), 0.5 * bath.frequencies * occ


def initial_covariance(
    cfg: MeasurementConfig, moments: GaussianMoments, bath: DiscreteBath
) -> np.ndarray:
    """Block-diagonal initial covariance: product state times thermal bath."""
    n = bath.frequencies.size
    d = 3 + 2 * n
    sig = np.zeros((2 * d, 2 * d))
    # system, and the pointers J = (X_1, X_2, P_1, P_2)
    sig[0, 0], sig[d, d] = moments.var_xs0, moments.var_ps0
    sig[np.ix_([1, 2, d + 1, d + 2], [1, 2, d + 1, d + 2])] = moments.cov_j
    # thermal bath, twice (two disjoint baths)
    vq, vk = thermal_mode_variances(bath, cfg.inv_beta)
    for b in range(2):
        idx = np.arange(3 + b * n, 3 + (b + 1) * n)
        sig[idx, idx] = vq
        sig[idx + d, idx + d] = vk
    return sig


def _halves(n: int) -> np.ndarray:
    """States of :func:`build_full_generator` (n modes a bath) in halves that F maps to each other:
    Pos' = (X_S, P_1, X_2, k_bath1, q_bath2), Mom' = (P_S, X_1, P_2, q_bath1, k_bath2)."""
    d, bath_1, bath_2 = 3 + 2 * n, np.arange(3, 3 + n), np.arange(3 + n, 3 + 2 * n)
    return np.r_[0, d + 1, 2, bath_1 + d, bath_2, d, 1, d + 2, bath_1, bath_2 + d]


def expm(b: np.ndarray, c: np.ndarray) -> list[list[np.ndarray]]:
    """The blocks [[I + E(bc), b S(cb)], [c S(bc), I + E(cb)]] of e^F, F = [[0, b], [c, 0]] with
    square blocks: E(N) = cosh(x) - 1 and S(N) = sinh(x)/x at x^2 = N, scaled by 4^-s to
    ||N||_1 <= theta, summed by Paterson-Stockmeyer and doubled s times as S <- S + S E,
    E <- 2(2E + E E), where C <- 2C^2 - I would cancel at C ~ I (Higham & Smith 2003).  S(bc) b
    was 10x farther than b S(cb) from a long-double reference in a 400-mode bath's tail column.
    """
    n = np.stack((b @ c, c @ b))
    norm = float(np.abs(n).sum(axis=1).max())
    s = ceil(log(norm / _THETA, 4)) if _THETA < norm < np.inf else 0
    n *= 0.25**s
    n2, eye = n @ n, np.eye(len(b))
    n4, powers = n2 @ n2, np.stack((np.broadcast_to(eye, n.shape), n, n2, n2 @ n))
    del n, n2  # copies in powers: the series holds powers, n4 and two sums
    es = np.tensordot(_SERIES[:, 3], powers, 1)  # [series, N]
    for j in (2, 1, 0):
        es = es @ n4
        es += np.tensordot(_SERIES[:, j], powers, 1)
    del n4, powers
    e, sn = es
    for _ in range(s):
        e, sn = 2.0 * (2.0 * e + e @ e), sn + sn @ e
    return [[eye + e[0], b @ sn[1]], [c @ sn[0], eye + e[1]]]


def discrete_pointer_covariance(
    cfg: MeasurementConfig,
    moments: GaussianMoments,
    bath: DiscreteBath,
    times: np.ndarray,
) -> np.ndarray:
    """Pointer-position 2x2 covariance blocks on a uniform time grid.

    The grid must be uniformly spaced starting at its step (t_m = m*dt).  F,
    ordered by its :func:`_halves`, must have zero diagonal blocks; the two
    pointer rows of the flow are advanced by e^{F dt}, one :func:`expm`.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times is empty: the grid t_m = m*dt needs at least one time")
    dt = times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("times must be a uniform grid t_m = m*dt")
    order = _halves(bath.frequencies.size)
    h = order.size // 2
    f = build_full_generator(cfg, bath)[np.ix_(order, order)]
    for name, block in (("Pos', Pos'", f[:h, :h]), ("Mom', Mom'", f[h:, h:])):
        if np.any(block):
            raise NumericalError(f"generator block F[{name}] is not zero")
    step = np.block(expm(f[:h, h:] * dt, f[h:, :h] * dt))
    if not np.all(np.isfinite(step)):
        raise NumericalError("flow step matrix not finite")
    sig = initial_covariance(cfg, moments, bath)[np.ix_(order, order)]
    rows = np.eye(f.shape[0])[1:3, order]  # the pointer positions
    out = np.empty((times.size, 2, 2))
    for m in range(times.size):
        rows = rows @ step
        out[m] = rows @ sig @ rows.T
    return out


def continuum_pointer_covariance(
    cfg: MeasurementConfig,
    moments: GaussianMoments,
    times: np.ndarray,
    mode: str = "raw",
) -> np.ndarray:
    """Pointer-position covariance from the continuum propagator pipeline."""
    times = np.asarray(times, dtype=float)
    gen = build_generator(cfg, mode)
    cov = np.zeros((6, 6))  # (X_S, X_1, X_2, P_S, P_1, P_2)
    cov[0, 0], cov[3, 3] = moments.var_xs0, moments.var_ps0
    cov[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])] = moments.cov_j
    cov_x, cov_p, cov_xp = cov[:3, :3], cov[3:, 3:], cov[:3, 3:]
    table = PropagatorTable(gen, float(times.max()))
    k, g, _ = table.propagators(times)
    k_t, g_t = k.transpose(0, 2, 1), g.transpose(0, 2, 1)
    full = k @ cov_x @ k_t + g @ cov_p @ g_t + k @ cov_xp @ g_t + g @ cov_xp.T @ k_t
    return full[:, 1:3, 1:3] + lambda_covariance(table, [BathKernel.from_config(cfg)], times)[0]


# ---------------------------------------------------------------------------
# validation gates


def _closed_limit_error() -> float:
    """Generator propagation against the exact eta = 0 polynomials."""
    cfg = MeasurementConfig(eta=0.0)
    times = np.linspace(0.0, 3.0, 61)
    numeric = propagate(build_generator(cfg, "renormalized"), times)
    exact = zip(*(closed_form_eta0(cfg, t) for t in times.tolist()))
    return max(float(np.abs(x - np.array(y)).max()) for x, y in zip(numeric, exact))


def _discrete_bath_error() -> float:
    """Largest relative distance of the continuum pointer covariance from a
    200-mode discrete bath."""
    cfg = MeasurementConfig()
    moments = gaussian_state_moments()
    times = np.arange(1, 11) * 0.2
    bath = discretize_bath(cfg, n_modes=200)
    disc = discrete_pointer_covariance(cfg, moments, bath, times)
    cont = continuum_pointer_covariance(cfg, moments, times, "raw")
    err = np.linalg.norm(disc - cont, axis=(1, 2)) / np.linalg.norm(cont, axis=(1, 2))
    return float(err.max())


def _classical_limit_error() -> float:
    """nu against its high-temperature limit eta*omega_c*inv_beta*e^(-omega_c t)."""
    worst = 0.0
    for inv_beta in (1e4, 2e4):
        kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in (0.01, 0.05, 0.1):
            nu = noise_autocorrelation(t, kernel)
            ref = kernel.eta * kernel.omega_c * inv_beta * np.exp(-kernel.omega_c * t)
            worst = max(worst, abs(nu - ref) / ref)
    return worst


def _dissipation_transform_error() -> float:
    """Closed-form mu(t) against the sine transform of the spectral density."""
    kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=1.0)
    worst = 0.0
    for t in np.linspace(0.05, 0.8, 12):
        direct = dissipation_kernel_scalar(float(t), kernel)
        recon = dissipation_from_spectral_density(float(t), kernel)
        worst = max(worst, abs(direct - recon) / abs(direct))
    return worst


def _inequality_chain_margin() -> float:
    """Largest violation of u_sq >= bound >= 1 on two default curves."""
    ev = CurveEvaluator(MeasurementConfig(), gaussian_state_moments(), 3.0)
    baths = [ev.with_inv_beta(inv_beta).kernel for inv_beta in (1.0, 2.0)]
    curves = ev.points(np.linspace(0.05, 3.0, 40), baths)  # each has the bits of its curve(times)
    bound, u_sq = (np.array([c.column(name) for c in curves]) for name in ("bound", "u_sq"))
    return float(np.maximum(bound - u_sq, 1.0 - bound).max())


#: (name, measurement, tolerance) of every gate; a gate passes when its
#: measurement is at most its tolerance
GATES = (
    ("closed-limit equivalence", _closed_limit_error, 1e-10),
    ("discrete-bath covariance", _discrete_bath_error, 0.02),
    ("kernel classical limit", _classical_limit_error, 1e-6),
    ("dissipation sine transform", _dissipation_transform_error, 1e-8),
    ("inequality chain", _inequality_chain_margin, 1e-8),
)
