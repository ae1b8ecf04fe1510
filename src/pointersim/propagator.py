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
1978): full rows of e^{F s_j} on a uniform grid s_j = j h, from one stacked
:func:`expm`, and a forward Taylor step from the node below,
e^{F(s_j + d)} = e^{F s_j} sum_k F^k d^k / k!.  :func:`expm` is the scaling
and squaring method of Al-Mohy & Higham (2009) at Pade degree 13 alone, in
numpy, so the module needs no SciPy.  The generator of the closed
measurement (eta = 0) is nilpotent, so its series ends at F^3 and its table
is the single node s = 0, the identity, exact at any t.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial as fact

import numpy as np

from .errors import ConfigError, NumericalError
from .model import CouplingMatrices, MeasurementConfig, build_coupling_matrices

__all__ = [
    "AugmentedGenerator",
    "ExpTable",
    "build_generator",
    "checked_inverse",
    "expm",
    "propagate",
    "response_matrices",
]

#: the dynamics mode of build_generator's callers that name none, and every mode
DEFAULT_MODE = "renormalized"
MODES = ("raw", DEFAULT_MODE)  # in the order the CLI lists them
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
#: Pade degree 13 of the scaling and squaring exponential: numerator
#: coefficients b_k = (26-k)!/(k!(13-k)!), the largest ||A^k||^(1/k) it serves
#: at double precision, and 1/|c_27| = 26!27!/(13!)^2 of its backward-error
#: series (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31:970, Table 3.1, (2.6))
_PADE_B = [float(fact(26 - k) // (fact(k) * fact(13 - k))) for k in range(14)]
_PADE_THETA, _PADE_C = 4.25, float(fact(26) * fact(27) // fact(13) ** 2)


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
        raise NumericalError("M^-1 times the couplings is not finite: singular M or huge kappa1")
    return blocks


def build_generator(cfg: MeasurementConfig, mode: str = DEFAULT_MODE) -> AugmentedGenerator:
    """Assemble the augmented generator for the requested dynamics mode.

    For eta = 0, and only then, no memory variables are needed: the generator
    is the 6-dimensional closed (nilpotent) position/velocity dynamics.
    """
    if mode not in MODES:
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
        if mode == "raw":
            # raw position convolution adds to the force
            gen[3:6, 6:8] = m_inv @ _S_SEL
            gen[6:8, 0:3] = eta * wc * wc * _S_SEL.T  # the product MeasurementConfig checks
        else:
            # renormalized: the memory term enters the force with a minus sign
            gen[3:6, 6:8] = -m_inv @ _S_SEL
            gen[6:8, 3:6] = eta * wc * _S_SEL.T
        gen[6:8, 6:8] = -wc * np.eye(2)

    noise = np.zeros((n, 3))
    noise[3:6, :] = m_inv
    return AugmentedGenerator(generator=gen, noise_map=noise, coupling=coup, cfg=cfg)


def _onenorm(a: np.ndarray) -> np.ndarray:
    """||a||_1 of stacked matrices."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ell(a: np.ndarray, m: int, c: float) -> np.ndarray:
    """Squarings that the degree-m Pade of each stacked matrix a needs on top
    for its backward error to stay at the unit roundoff, from the exact
    ||abs(a)^(2m+1)||_1 (the ell of Al-Mohy & Higham 2009, Algorithm 6.1).
    The power is taken of abs(a)/||a||_1, whose entries stay <= 1, and
    scaled back in logarithms, so that it cannot overflow."""
    norm = _onenorm(a)
    ell = np.zeros(len(a))
    on = norm > 0.0
    v, b = np.ones((on.sum(), 1, a.shape[-1])), np.abs(a[on]) / norm[on, None, None]
    for _ in range(2 * m + 1):
        v = v @ b
    log_alpha = np.log2(v.max(axis=(1, 2), initial=0.0)) + 2 * m * np.log2(norm[on]) - np.log2(c)
    ell[on] = np.ceil((log_alpha + 53) / (2 * m))
    return np.maximum(ell, 0.0)


def expm(a) -> np.ndarray:
    """e^A of square matrices stacked along the leading axes of ``a``.

    The scaling and squaring method of Al-Mohy & Higham (2009), which SciPy
    also implements, at Pade degree 13 alone: per matrix the fewest
    squarings s that ||A^k||^(1/k) and the backward-error bound allow, then
    r_13(A / 2^s) squared s times.  A zero matrix gives I exactly.  A matrix
    whose powers overflow gets s = 0 and a result that is not finite.
    """
    a = np.asarray(a, dtype=float)
    shape, eye = a.shape, np.eye(a.shape[-1])
    a = a.reshape((-1,) + shape[-2:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        d6, d8, d10 = _onenorm(a6) ** (1 / 6), _onenorm(a4 @ a4) ** 0.125, _onenorm(a4 @ a6) ** 0.1
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        s = np.maximum(np.ceil(np.log2(eta / _PADE_THETA)), 0.0)
        s += _ell(a * 0.5 ** s[:, None, None], 13, _PADE_C)
    s = np.where(np.isfinite(s), s, 0.0).astype(int)

    sc = 0.5 ** s[:, None, None]
    p2, p4, p6 = a2 * sc**2, a4 * sc**4, a6 * sc**6
    powers = (eye, p2, p4, p6, p4 @ p4, p4 @ p6, p6 @ p6)
    u = a * sc @ sum(_PADE_B[2 * k + 1] * p for k, p in enumerate(powers))
    v = sum(_PADE_B[2 * k] * p for k, p in enumerate(powers))
    # r_13 = (V+U)(V-U)^-1, the factors commute: solved for the rows, it
    # comes out twice as accurate as (V-U)^-1(V+U) on non-normal tables
    x = np.linalg.solve(np.swapaxes(v - u, 1, 2), np.swapaxes(v + u, 1, 2)).swapaxes(1, 2)
    x[~a.any(axis=(1, 2))] = eye  # the solve leaves b_0 I / b_0 I 1 ulp off
    for i in range(s.max(initial=0)):
        x[s > i] = x[s > i] @ x[s > i]
    return x.reshape(shape)


class ExpTable:
    """e^{Fs} of the augmented generator on [0, t_max].

    The grid step is h = 1/(2 rho(F)), at most 1/32, with rho the spectral
    radius of the generator; rho only sets the scale.  The nodes e^{F s_j}
    come from one call of the module's :func:`expm` on the stack of the
    j*h*F.  Off the grid every value is a forward Taylor step of 14 terms
    from the node below.  The closed (6-dimensional) generator has F^4 = 0:
    its series is the cubic, exact at any step, and its table the node
    s = 0 alone, the identity, at any t_max, with no call of expm.
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
        # e^{F s_j}; the closed table's one node is e^{F*0} = I
        self._exp = expm(np.arange(n + 1)[:, None, None] * self.step * f) if n else np.eye(dim)[None]

    def _split(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Node index j and forward step d = s - s_j of every time s."""
        s = np.asarray(s, dtype=float).ravel()
        j = np.floor(s / self.step)
        if s.size and not (s.min() >= 0.0 and j.max() <= self._last):
            raise ValueError(f"times outside the tabulated range [0, {self.t_max}]")
        j = np.minimum(j, len(self._exp) - 1).astype(np.intp)
        return j, s - j * self.step

    def _read(self, *parts) -> list[np.ndarray]:
        """Each part (s, coeffs, rows) at its times s: rows ``rows`` of the node
        s_j below (I for an exact table) times the step sum_k coeffs[k] d^k, or
        for rows None step times node; NumericalError where one is not finite."""
        times = [np.asarray(s, dtype=float) for s, _, _ in parts]
        j, d = self._split(np.concatenate([s.ravel() for s in times]))
        powers = np.ones((len(self._c_exp), d.size))  # d^k, for all parts
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], d, out=powers[k])
        powers, reads, at = np.ascontiguousarray(powers.T)[:, None, :], [], 0
        for s, (_, coeffs, rows) in zip(times, parts):
            at, here = at + s.size, slice(at, at + s.size)
            # one small matmul per step: a step has the same bits alone as in a batch
            e = (powers[here] @ coeffs.reshape(len(coeffs), -1)).reshape(-1, *coeffs.shape[1:])
            if len(self._exp) > 1:
                e = e @ self._exp[j[here]] if rows is None else self._exp[j[here], rows] @ e
            elif rows is not None:
                e = e[:, rows]
            if not np.isfinite(e).all():
                bad = ~np.isfinite(e).all(axis=(-2, -1))
                raise NumericalError(f"matrix exponential not finite at t = {s.ravel()[bad][0]}")
            reads.append(e.reshape(s.shape + e.shape[1:]))
        return reads

    def exp(self, s, rows=slice(None)) -> np.ndarray:
        """The rows ``rows`` of e^{Fs} at the times s, s.shape + (rows, dim);
        NumericalError at the first time where one is not finite."""
        return self._read((s, self._c_exp, rows))[0]

    def exp_folded(self, s, rows, u, right: np.ndarray) -> list[np.ndarray]:
        """The rows ``rows`` of e^{Fs} and e^{Fu} right, each folded into the step:
        e^{Fd} commutes with e^{F s_j}, so the rows are (sum_k d^k F^k[rows]/k!) e^{F s_j}."""
        return self._read((s, self._c_exp[:, rows], None), (u, self._c_exp @ right, slice(None)))

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
    the bath term A^-1 Lambda A^-T use it.  Raises NumericalError at the
    first A with |det A| <= _DET_A_RTOL * ||A||^2.
    """
    det_a = _det(a)
    scale = np.maximum((a * a).sum(axis=(-2, -1)), 1e-300)
    singular = np.abs(det_a) <= _DET_A_RTOL * scale
    if singular.any():
        raise NumericalError(
            f"det A = {np.extract(singular, det_a)[0]:.3g} too small for inference"
        )
    adjugate = np.swapaxes(a[..., ::-1, ::-1], -1, -2) * _ADJUGATE_SIGNS
    return adjugate / det_a[..., None, None]
