"""Accumulated-noise covariance and the inference-transformed matrix Xi^2.

The pointer components of the accumulated noise are
Lambda_a(t) = int_0^t sum_k G_ak(t-s) xi_k(s) ds with k running over the
two bath-coupled pointer rows, so the symmetrized covariance is the double
convolution of the pointer block of G with the noise autocorrelation nu.

The double integral is reduced to one dimension along the difference
coordinate u = s1 - s2, where the logarithmic singularity of nu lives:

    <Lambda Lambda^T>_ab = int_0^t du nu(u) * (H(u) + H(u)^T)_ab,
    H(u) = int_0^{t-u} G_p(r) G_p(r+u)^T dr,

with G_p the 2x2 pointer block of G.  The outer integral uses
Gauss-Legendre panels with a geometrically graded mesh toward u = 0; the
smooth inner integral uses a fixed Gauss-Legendre rule.

Only nu depends on the bath temperature, and Lambda is linear in nu.  So
:func:`lambda_rule` builds, once per time point and for all panels in one
vectorised pass, the outer nodes, their weights and sym(u) = H(u) + H(u)^T;
:meth:`LambdaRule.covariance` then contracts that rule with one call of nu
on all nodes for each bath kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NegativeEigenvalue
from .kernels import BathKernel, noise_autocorrelation
from .model import NumericalSettings
from .propagator import AugmentedGenerator, checked_det_a, propagate

__all__ = [
    "PropagatorTable",
    "LambdaRule",
    "lambda_rule",
    "lambda_covariance",
    "xi_matrix",
]


class PropagatorTable:
    """Dense-grid spline of the pointer block of G for fast quadrature."""

    def __init__(self, gen: AugmentedGenerator, t_max: float, settings: NumericalSettings):
        n = max(16, int(np.ceil(t_max * settings.table_points_per_time))) + 1
        self.times = np.linspace(0.0, t_max, n)
        block = np.empty((n, 2, 2))
        for i, t in enumerate(self.times):
            _, g, _ = propagate(gen, float(t))
            block[i] = g[1:3, 1:3]
        self._spline = CubicSpline(self.times, block, axis=0)
        self.t_max = t_max
        self.gen = gen

    def pointer_block(self, tau) -> np.ndarray:
        """G pointer block at times tau (array-shaped result (..., 2, 2))."""
        return self._spline(np.asarray(tau, dtype=float))


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _u_panels(t: float, settings: NumericalSettings):
    """Panel edges of the outer u-integral on (0, t], graded near zero."""
    u0 = min(settings.conv_graded_start, 0.5 * t)
    edges = [t]
    # regular panels from t down to u0
    n_reg = max(1, int(np.ceil((t - u0) / settings.conv_panel_width)))
    for i in range(1, n_reg):
        edges.append(t - i * (t - u0) / n_reg)
    edges.append(u0)
    # graded panels from u0 toward 0
    lo = u0
    for _ in range(settings.conv_graded_panels):
        lo *= settings.conv_graded_ratio
        edges.append(lo)
    edges.append(0.0)
    return np.array(edges[::-1])  # ascending, starting at 0


@dataclass(frozen=True)
class LambdaRule:
    """Beta-free quadrature rule for Lambda at one time point.

    Lambda(t) = sum_i weights[i] * nu(nodes[i]) * sym[i], so one rule
    serves every bath temperature.
    """

    nodes: np.ndarray  # (n,) outer u-nodes on (0, t)
    weights: np.ndarray  # (n,) outer quadrature weights
    sym: np.ndarray  # (n, 2, 2) H(u) + H(u)^T at the nodes

    def covariance(self, kernel: BathKernel) -> np.ndarray:
        """Contract the rule with nu of ``kernel``; PSD-checked 2x2 result.

        Raises
        ------
        NegativeEigenvalue
            If the result has an eigenvalue below -1e-10 * trace, which
            signals a quadrature failure rather than physics.
        """
        nu_vals = noise_autocorrelation(self.nodes, kernel)
        cov = np.tensordot(self.weights * nu_vals, self.sym, axes=1)
        cov = 0.5 * (cov + cov.T)
        trace = np.trace(cov)
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        if min_eig < -1e-10 * max(trace, 1e-300):
            raise NegativeEigenvalue(
                f"noise covariance eigenvalue {min_eig:.3g} below PSD tolerance "
                f"(trace {trace:.3g})"
            )
        return cov


def lambda_rule(
    table: PropagatorTable,
    t: float,
    settings: NumericalSettings | None = None,
) -> LambdaRule:
    """Outer nodes, weights and sym(u) of Lambda(t), all panels in one pass."""
    settings = settings or table.gen.cfg.numerical
    if t > table.t_max * (1.0 + 1e-12):
        raise ValueError(f"t = {t} exceeds the tabulated range {table.t_max}")

    xg, wg = _gl_nodes(settings.conv_panel_nodes)
    xr, wr = _gl_nodes(settings.conv_inner_nodes)
    edges = _u_panels(t, settings)
    lo, width = edges[:-1], np.diff(edges)
    keep = width > 0.0
    lo, width = lo[keep], width[keep]
    u = (lo[:, None] + width[:, None] * xg).ravel()  # (n,)
    wu = (width[:, None] * wg).ravel()
    # inner integral over r in [0, t-u]
    span = t - u
    r = span[:, None] * xr[None, :]  # (n, nr)
    # H(u)_ab = sum_{r,k} w_in G_ak(r) G_bk(r+u): contract (r, k) in one
    # matmul; weighting in place keeps one fewer (n, nr, 2, 2) temporary
    n = u.size
    rhs = table.pointer_block(r + u[:, None]).transpose(0, 1, 3, 2).reshape(n, -1, 2)
    lhs = table.pointer_block(r)  # (n, nr, 2, 2)
    lhs *= (span[:, None] * wr[None, :])[:, :, None, None]
    h = lhs.transpose(0, 2, 1, 3).reshape(n, 2, -1) @ rhs
    return LambdaRule(nodes=u, weights=wu, sym=h + h.transpose(0, 2, 1))


def lambda_covariance(
    table: PropagatorTable,
    kernel: BathKernel,
    t: float,
    settings: NumericalSettings | None = None,
) -> np.ndarray:
    """Symmetrized 2x2 covariance of the accumulated pointer noise at t.

    Raises
    ------
    NegativeEigenvalue
        If the result has an eigenvalue below -1e-10 * trace, which
        signals a quadrature failure rather than physics.
    """
    if kernel.eta == 0.0 or t == 0.0:
        return np.zeros((2, 2))
    return lambda_rule(table, t, settings).covariance(kernel)


def xi_matrix(
    a: np.ndarray,
    lambda_cov: np.ndarray,
    det_rtol: float = 1e-12,
) -> np.ndarray:
    """Congruence transform Xi^2 = A^-1 <Lambda Lambda^T> A^-T.

    Raises SingularInference when |det A| is below det_rtol * ||A||^2.
    """
    det_a = checked_det_a(a, det_rtol)
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det_a
    return a_inv @ lambda_cov @ a_inv.T
