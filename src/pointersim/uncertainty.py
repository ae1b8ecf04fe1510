"""Inferred-observable variances, collective uncertainty, and its bound.

The variance of the inferred position (momentum) observable decomposes
into three parts: the initial system variance, the pointer-state
contribution sigma_k^2, and the environmental noise contribution Xi_k^2.
The collective uncertainty is the product of the two inferred variances,
bounded from below by a state-dependent extension of the closed
measurement bound U^2 >= 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .kernels import BathKernel
from .model import GaussianMoments, MeasurementConfig, require_zero_mean
from .noise import PropagatorTable, lambda_covariance, lambda_rule, xi_matrix
from .propagator import build_generator, checked_det_a, propagate, response_matrices

__all__ = [
    "UncertaintyPoint",
    "UncertaintyCurve",
    "pointer_contributions",
    "inferred_variances",
    "collective_uncertainty",
    "expanded_uncertainty",
    "lower_bound",
    "wodkiewicz_f",
    "matching_distance",
    "CurveEvaluator",
    "uncertainty_curve",
]


def pointer_contributions(
    a: np.ndarray, b: np.ndarray, cov_j: np.ndarray, det_rtol: float = 1e-12
):
    """Pointer-state contributions sigma_1^2, sigma_2^2.

    sigma_k^2 = v_k cov_J v_k^T with rows v_k of A^-1 B.  Raises
    SingularInference when |det A| is below det_rtol * ||A||^2.
    """
    checked_det_a(a, det_rtol)
    v = np.linalg.solve(a, b)  # (2, 4)
    s1 = float(v[0] @ cov_j @ v[0])
    s2 = float(v[1] @ cov_j @ v[1])
    return s1, s2


def inferred_variances(
    moments: GaussianMoments,
    sigma1_sq: float,
    sigma2_sq: float,
    xi1_sq: float,
    xi2_sq: float,
):
    """Three-part sums for the inferred position and momentum variances."""
    var_x = moments.var_xs0 + sigma1_sq + xi1_sq
    var_p = moments.var_ps0 + sigma2_sq + xi2_sq
    return var_x, var_p


def collective_uncertainty(var_x: float, var_p: float) -> float:
    """U^2, the product of the inferred variances."""
    return var_x * var_p


def expanded_uncertainty(
    moments: GaussianMoments,
    sigma1_sq: float,
    sigma2_sq: float,
    xi1_sq: float,
    xi2_sq: float,
) -> float:
    """Five-term expanded form of U^2; algebraically identical to the
    product form and used as a consistency oracle."""
    dx, dp = moments.dx_s0, moments.dp_s0
    s1, s2 = np.sqrt(sigma1_sq), np.sqrt(sigma2_sq)
    return (
        (dx * s2 - dp * s1) ** 2
        + 0.5 * xi2_sq * ((dx + s1) ** 2 + (dx - s1) ** 2)
        + xi1_sq * xi2_sq
        + (dx * dp + s1 * s2) ** 2
        + 0.5 * xi1_sq * ((dp + s2) ** 2 + (dp - s2) ** 2)
    )


def lower_bound(
    moments: GaussianMoments,
    sigma1_sq: float,
    sigma2_sq: float,
    xi1_sq: float,
    xi2_sq: float,
) -> float:
    """State-dependent lower bound of the collective uncertainty.

    bound = 1 + Xi1^2 Xi2^2 + (Xi2^2/2)(DX_S(0) + sigma1)^2
              + (Xi1^2/2)(DP_S(0) + sigma2)^2
    evaluated with the actual time-dependent sigma_k and Xi_k^2.
    """
    s1, s2 = np.sqrt(sigma1_sq), np.sqrt(sigma2_sq)
    return (
        1.0
        + xi1_sq * xi2_sq
        + 0.5 * xi2_sq * (moments.dx_s0 + s1) ** 2
        + 0.5 * xi1_sq * (moments.dp_s0 + s2) ** 2
    )


def wodkiewicz_f(u_min_sq: float):
    """Both branches of f = -1 +/- 2*sqrt(U_min^2)."""
    root = 2.0 * np.sqrt(u_min_sq)
    return (-1.0 - root, -1.0 + root)


def matching_distance(moments: GaussianMoments, sigma1_sq: float, sigma2_sq: float):
    """Diagnostic distance from the bound-saturating matching conditions
    sigma_1 = DX_S(0), sigma_2 = DP_S(0)."""
    return (
        float(np.sqrt(sigma1_sq) - moments.dx_s0),
        float(np.sqrt(sigma2_sq) - moments.dp_s0),
    )


@dataclass(frozen=True)
class UncertaintyPoint:
    """All measurement figures of merit at a single interaction time."""

    t: float
    sigma1_sq: float
    sigma2_sq: float
    xi1_sq: float
    xi2_sq: float
    var_x: float
    var_p: float
    u_sq: float
    bound: float
    det_a: float


@dataclass(frozen=True)
class UncertaintyCurve:
    """Uncertainty figures sampled on a time grid."""

    points: tuple[UncertaintyPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in self.points])


def _bath_kernel(cfg: MeasurementConfig) -> BathKernel:
    return BathKernel(eta=cfg.eta, omega_c=cfg.omega_c, inv_beta=cfg.inv_beta)


class CurveEvaluator:
    """Reusable single-time evaluator for one measurement configuration.

    Builds the augmented generator and the exact propagator table once;
    the bath kernel can be swapped cheaply (the dynamics do not depend on
    the thermal energy, only the noise does).
    """

    def __init__(
        self,
        cfg: MeasurementConfig,
        moments: GaussianMoments,
        t_max: float,
        mode: str = "renormalized",
    ):
        require_zero_mean(moments)
        self.cfg = cfg
        self.moments = moments
        self.mode = mode
        self.gen = build_generator(cfg, mode)
        self.table = (
            PropagatorTable(self.gen, t_max) if cfg.eta > 0 else None
        )
        self.kernel = _bath_kernel(cfg)

    def with_inv_beta(self, inv_beta: float) -> "CurveEvaluator":
        """Shallow copy sharing the propagator table, different bath energy."""
        other = copy.copy(self)
        other.cfg = replace(self.cfg, inv_beta=inv_beta)
        other.kernel = _bath_kernel(other.cfg)
        return other

    def _dynamics(self, t: float):
        """Beta-free part of a point: A, det A and sigma_k^2 at t."""
        k, g, _ = propagate(self.gen, t)
        a, b, det_a = response_matrices(k, g)
        rtol = self.cfg.numerical.det_a_rtol
        s1, s2 = pointer_contributions(a, b, self.moments.cov_j, rtol)
        return a, det_a, s1, s2

    def _assemble(self, t: float, dynamics, lam) -> UncertaintyPoint:
        """Point from its beta-free part and Lambda (None when eta = 0)."""
        a, det_a, s1, s2 = dynamics
        if lam is None:
            xi1 = xi2 = 0.0
        else:
            xi = xi_matrix(a, lam, self.cfg.numerical.det_a_rtol)
            xi1, xi2 = float(xi[0, 0]), float(xi[1, 1])
        var_x, var_p = inferred_variances(self.moments, s1, s2, xi1, xi2)
        return UncertaintyPoint(
            t=t,
            sigma1_sq=s1,
            sigma2_sq=s2,
            xi1_sq=xi1,
            xi2_sq=xi2,
            var_x=var_x,
            var_p=var_p,
            u_sq=collective_uncertainty(var_x, var_p),
            bound=lower_bound(self.moments, s1, s2, xi1, xi2),
            det_a=det_a,
        )

    def point(self, t: float) -> UncertaintyPoint:
        dynamics = self._dynamics(t)
        lam = None
        if self.cfg.eta > 0:
            lam = lambda_covariance(self.table, self.kernel, t)
        return self._assemble(t, dynamics, lam)

    def points(self, t: float, kernels) -> list[UncertaintyPoint]:
        """One point per bath kernel at t, sharing the dynamics and the
        Lambda rule; each equals ``point(t)`` of an evaluator with that
        kernel."""
        dynamics = self._dynamics(t)
        if self.cfg.eta > 0:
            rule = lambda_rule(self.table, t)
            lams = [rule.covariance(kernel) for kernel in kernels]
        else:
            lams = [None] * len(kernels)
        return [self._assemble(t, dynamics, lam) for lam in lams]

    def u_sq(self, t: float) -> float:
        return self.point(t).u_sq


def uncertainty_curve(
    cfg: MeasurementConfig,
    moments: GaussianMoments,
    times: np.ndarray,
    mode: str = "renormalized",
) -> UncertaintyCurve:
    """Evaluate the full uncertainty curve on a time grid."""
    times = np.asarray(times, dtype=float)
    ev = CurveEvaluator(cfg, moments, float(times.max()), mode)
    return UncertaintyCurve(points=tuple(ev.point(float(t)) for t in times))
