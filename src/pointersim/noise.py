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
Gauss-Legendre panels, graded geometrically toward u = 0.

The inner integral needs no quadrature.  With F the augmented generator,
P the pointer-position rows and N the pointer columns of the noise map,
G_p(r) = P e^{Fr} N, so H(u) = P W(t-u) e^{F^T u} P^T with the
controllability Gramian W(s) = int_0^s e^{Fr} N N^T e^{F^T r} dr (Van Loan,
IEEE TAC 23:395, 1978).  :class:`PropagatorTable` is the exponential table
of :mod:`~pointersim.propagator`, whose grid s_j = j h and Taylor step it
shares; it adds P W(s_j) on the same grid and steps it forward from the
node below, by d in [0, h):

    P W(s_j + d) = P W(s_j) + P e^{F s_j} T_W(d) e^{F^T s_j},
    T_W(d) = sum_k L_k d^(k+1) / (k+1)!,

with L_0 = N N^T and L_k = F L_{k-1} + L_{k-1} F^T.

The outer panels of Lambda(t) are 16 graded panels on [0, u0], with
u0 = min(0.05, t/2), then regular panels of width 0.1 whose edges sit at
u0 + k*0.1, and a last, partial panel that ends at t.  From t = 0.1 on,
u0 = 0.05 for every t, so every panel but the last is a panel of one outer
mesh on [0, t_max] that :class:`PropagatorTable` builds with its nodes,
weights and P e^{Fu}.  The first time a bath kernel meets the mesh, nu is
tabulated on the whole mesh up to t_max and kept per kernel; Lambda(t) for
t >= 0.1 then evaluates nu afresh only on the 10 nodes of its last panel.
Below t = 0.1 the graded panels scale with t, and every node is fresh.

Only nu depends on the bath temperature, and Lambda is linear in nu.  So
:func:`lambda_rule` builds, once per time point and for all panels in one
vectorised pass, the outer nodes, their weights and sym(u) = H(u) + H(u)^T;
:meth:`LambdaRule.covariance` then contracts that rule with the nu of each
bath kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NegativeEigenvalue
from .kernels import BathKernel, noise_autocorrelation
from .propagator import _TAYLOR_TERMS, AugmentedGenerator, ExpTable, _taylor

__all__ = [
    "PropagatorTable",
    "LambdaRule",
    "lambda_rule",
    "lambda_covariance",
    "xi_matrix",
]

#: outer u-panels: Gauss-Legendre nodes per panel, regular width, and
#: where, how fast and in how many panels they grade toward the
#: logarithmic singularity of nu at u = 0
_PANEL_NODES = 10
_PANEL_WIDTH = 0.1
_GRADED_START = 0.05
_GRADED_RATIO = 0.18
_GRADED_PANELS = 16
#: most values of nu the outer-mesh cache of a table may hold over all its
#: bath kernels, about 100*t_max + 160 per kernel; the default sweep holds 4,500
_MAX_MESH_NU = 10_000_000


class PropagatorTable(ExpTable):
    """The exponential table with the exact pointer rows of the Gramian W(s)
    on [0, t_max], and the outer mesh of Lambda.

    W(s) off the grid is a forward Taylor step from the node below, so it
    is a sum of positive semidefinite terms.
    """

    def __init__(self, gen: AugmentedGenerator, t_max: float):
        super().__init__(gen, t_max)
        f, noise = gen.generator, gen.noise_map[:, 1:3]  # F, N
        c_gram = [noise @ noise.T]  # L_k / (k+1)!
        for k in range(1, _TAYLOR_TERMS):
            c_gram.append((f @ c_gram[-1] + c_gram[-1] @ f.T) / (k + 1))
        self._c_gram = np.array(c_gram)
        self._exp_t = np.ascontiguousarray(self._exp.transpose(0, 2, 1))  # e^{F^T s_j}
        w_step = _taylor(self._c_gram, np.array([self.step]), 1)[0]
        gain = self._exp[:-1, 1:3] @ w_step @ self._exp_t[:-1]
        self._p_gram = np.zeros((len(self._exp), 2, f.shape[0]))  # P W(s_j)
        np.cumsum(gain, axis=0, out=self._p_gram[1:])

        # the outer mesh: every panel of Lambda(t_max) but the last; the
        # closed measurement (eta = 0) has no noise, and no mesh
        self.mesh_nodes, self.mesh_weights = _panel_nodes(
            _u_panels(t_max if gen.cfg.eta > 0 else 0.0, _GRADED_PANELS)[:-1], _PANEL_NODES
        )
        self.mesh_exp = self.pointer_exp(self.mesh_nodes)  # P e^{Fu}
        self._mesh_nu: dict[BathKernel, np.ndarray] = {}

    def check_mesh_nu(self, kernels: int) -> None:
        """ConfigError when nu of ``kernels`` bath kernels on the outer mesh
        would hold more than _MAX_MESH_NU values."""
        size = kernels * self.mesh_nodes.size
        if size > _MAX_MESH_NU:
            raise ConfigError(
                f"nu of {kernels} thermal energies on the {self.mesh_nodes.size}-node mesh of "
                f"[0, {self.t_max:g}] needs {size:.3g} values, more than {_MAX_MESH_NU}; "
                "lower sweep.count or t_max"
            )

    def mesh_nu(self, kernel: BathKernel) -> np.ndarray:
        """nu of ``kernel`` on every mesh node, tabulated on first use."""
        nu = self._mesh_nu.get(kernel)
        if nu is None:
            nu = self._mesh_nu[kernel] = noise_autocorrelation(self.mesh_nodes, kernel)
        return nu

    def pointer_exp(self, s) -> np.ndarray:
        """P e^{Fs} at the times s, as (n, 2, dim)."""
        return self.exp(np.ravel(s), slice(1, 3))

    def pointer_gramian(self, s) -> np.ndarray:
        """P W(s) at the times s, as (n, 2, dim)."""
        j, d = self._split(s)
        return self._p_gram[j] + self._exp[j, 1:3] @ _taylor(self._c_gram, d, 1) @ self._exp_t[j]


@lru_cache(maxsize=None)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _u_panels(t: float, graded_panels: int) -> np.ndarray:
    """Panel edges of the outer u-integral on (0, t], ascending from 0:
    ``graded_panels`` graded panels below u0 = min(_GRADED_START, t/2),
    regular edges at u0 + k*_PANEL_WIDTH below t, and t."""
    u0 = min(_GRADED_START, 0.5 * t)
    graded = [u0]
    for _ in range(graded_panels):
        graded.append(graded[-1] * _GRADED_RATIO)
    regular = u0 + _PANEL_WIDTH * np.arange(1, int((t - u0) / _PANEL_WIDTH) + 2)
    return np.concatenate(([0.0], graded[::-1], regular[regular < t], [t]))


def _panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an n-point Gauss-Legendre rule on each non-empty
    panel between consecutive edges."""
    xg, wg = _gl_nodes(n)
    lo, width = edges[:-1], np.diff(edges)
    keep = width > 0.0
    lo, width = lo[keep], width[keep]
    return (lo[:, None] + width[:, None] * xg).ravel(), (width[:, None] * wg).ravel()


@dataclass(frozen=True)
class LambdaRule:
    """Beta-free quadrature rule for Lambda at one time point.

    Lambda(t) = sum_i weights[i] * nu(nodes[i]) * sym[i], so one rule
    serves every bath temperature.
    """

    nodes: np.ndarray  # (n,) outer u-nodes on (0, t)
    weights: np.ndarray  # (n,) outer quadrature weights
    sym: np.ndarray  # (n, 2, 2) H(u) + H(u)^T at the nodes
    table: PropagatorTable
    #: how many leading nodes are the leading nodes of the table's outer mesh
    n_mesh: int

    def covariance(self, kernel: BathKernel) -> np.ndarray:
        """Contract the rule with nu of ``kernel``; PSD-checked 2x2 result.

        Raises
        ------
        NegativeEigenvalue
            If the result has an eigenvalue below -1e-10 * trace, which
            signals a quadrature failure rather than physics.
        """
        nu_vals = noise_autocorrelation(self.nodes[self.n_mesh:], kernel)
        if self.n_mesh:
            nu_vals = np.concatenate((self.table.mesh_nu(kernel)[: self.n_mesh], nu_vals))
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


def lambda_rule(table: PropagatorTable, t: float, doubled: bool = False) -> LambdaRule:
    """Outer nodes, weights and sym(u) of Lambda(t), all panels in one pass.

    For 2*_GRADED_START <= t <= t_max every panel but the last is a panel
    of the table's outer mesh.  ``doubled`` gives twice the nodes per panel
    and four more graded panels, the reference resolution of the
    convergence checks, all off the mesh.
    """
    if t > table.t_max * (1.0 + 1e-12):
        raise ValueError(f"t = {t} exceeds the tabulated range {table.t_max}")

    edges = _u_panels(t, _GRADED_PANELS + 4 if doubled else _GRADED_PANELS)
    # a t past t_max, within the rounding allowed above, may end beyond the mesh
    on_mesh = not doubled and 2.0 * _GRADED_START <= t <= table.t_max
    mesh_panels = edges.size - 2 if on_mesh else 0
    u, wu = _panel_nodes(edges[mesh_panels:], 2 * _PANEL_NODES if doubled else _PANEL_NODES)
    p_exp = table.pointer_exp(u)  # P e^{Fu}
    n_mesh = mesh_panels * _PANEL_NODES
    if n_mesh:
        u = np.concatenate((table.mesh_nodes[:n_mesh], u))
        wu = np.concatenate((table.mesh_weights[:n_mesh], wu))
        p_exp = np.concatenate((table.mesh_exp[:n_mesh], p_exp))
    # H(u) = P W(t-u) (P e^{Fu})^T
    h = table.pointer_gramian(t - u) @ p_exp.transpose(0, 2, 1)
    return LambdaRule(
        nodes=u, weights=wu, sym=h + h.transpose(0, 2, 1), table=table, n_mesh=n_mesh
    )


def lambda_covariance(table: PropagatorTable, kernel: BathKernel, t: float) -> np.ndarray:
    """Symmetrized 2x2 covariance of the accumulated pointer noise at t,
    PSD-checked by :meth:`LambdaRule.covariance`."""
    if kernel.eta == 0.0 or t == 0.0:
        return np.zeros((2, 2))
    return lambda_rule(table, t).covariance(kernel)


def xi_matrix(a_inv: np.ndarray, lambda_cov: np.ndarray) -> np.ndarray:
    """Congruence transform Xi^2 = A^-1 <Lambda Lambda^T> A^-T of the checked
    inverse ``a_inv`` (:func:`~pointersim.propagator.checked_inverse`); A^-1
    and Lambda may be stacks (..., 2, 2) that broadcast."""
    return a_inv @ lambda_cov @ np.swapaxes(a_inv, -1, -2)
