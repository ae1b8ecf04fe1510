"""Inferred-observable variances, collective uncertainty, and its bound.

The system's position and momentum are inferred from the pointer readings
through the response matrix A(t), inverted once per time.  Each inferred
variance is the initial system variance plus the pointer term sigma_k^2
(rows v_k of A^-1 B against cov_J) plus the bath term Xi_k^2 (diagonal of
A^-1 Lambda A^-T).  U^2 is the product of the two, bounded below by a
state-dependent extension of the closed measurement bound U^2 >= 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace

import numpy as np

from .kernels import BathKernel
from .model import GaussianMoments, MeasurementConfig
from .noise import PropagatorTable, lambda_covariance, xi_matrix
from .propagator import DEFAULT_MODE, build_generator, checked_inverse, response_matrices

__all__ = ["UncertaintyPoint", "UncertaintyCurve", "lower_bound", "CurveEvaluator"]


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


@dataclass(frozen=True)
class UncertaintyPoint:
    """All measurement figures of merit at a single interaction time, in
    the column order of the CSV."""

    t: float
    var_x: float
    var_p: float
    u_sq: float
    bound: float
    sigma1_sq: float
    sigma2_sq: float
    xi1_sq: float
    xi2_sq: float
    det_a: float


_COLUMNS = tuple(f.name for f in fields(UncertaintyPoint))


def _time_grid(times) -> np.ndarray:
    """``times`` as a 1-D grid, a scalar as one time; ValueError naming
    any other shape."""
    grid = np.atleast_1d(np.asarray(times, dtype=float))
    if grid.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, got shape {grid.shape}")
    return grid


class UncertaintyCurve:
    """Uncertainty figures sampled on a time grid, one array per field of
    :class:`UncertaintyPoint`; indexing and iteration give points.

    The ``t`` column sets the length; the others broadcast against it.
    """

    def __init__(self, **columns):
        t = np.asarray(columns["t"], dtype=float)
        self._table = np.empty((len(_COLUMNS),) + t.shape)
        for row, name in zip(self._table, _COLUMNS):
            row[...] = columns[name]

    def __len__(self):
        return self._table.shape[1]

    def __getitem__(self, i: int) -> UncertaintyPoint:
        return UncertaintyPoint(*self._table[:, i].tolist())

    def __iter__(self):
        return (UncertaintyPoint(*row) for row in self._table.T.tolist())

    def column(self, name: str) -> np.ndarray:
        return self._table[_COLUMNS.index(name)]


class CurveEvaluator:
    """Reusable evaluator for one measurement configuration.

    Builds the augmented generator and the exact propagator table once;
    the bath kernel can be swapped cheaply (the dynamics do not depend on
    the thermal energy, only the noise does).
    """

    def __init__(
        self, cfg: MeasurementConfig, moments: GaussianMoments, t_max: float, mode: str = DEFAULT_MODE
    ):
        self.cfg = cfg
        self.moments = moments
        self.gen = build_generator(cfg, mode)
        self.table = PropagatorTable(self.gen, t_max)
        self.kernel = BathKernel.from_config(cfg)

    def with_inv_beta(self, inv_beta: float) -> "CurveEvaluator":
        """Shallow copy sharing the propagator table, different bath energy."""
        other = copy.copy(self)
        other.cfg = replace(self.cfg, inv_beta=inv_beta)
        other.kernel = BathKernel.from_config(other.cfg)
        return other

    def _dynamics(self, times: np.ndarray):
        """Beta-free part of a curve at every time: A^-1 from the one
        checked inverse, det A, and sigma_k^2 = v_k cov_J v_k^T with rows
        v_k of A^-1 B."""
        a, b, det_a = response_matrices(*self.table.propagators(times)[:2])
        a_inv = checked_inverse(a)
        v = a_inv @ b  # (n, 2, 4)
        # same bits as v_k @ cov_J @ v_k; einsum or a sum reduction round differently
        sigma = np.matmul((v @ self.moments.cov_j)[..., None, :], v[..., :, None])[..., 0, 0]
        return a_inv, det_a, sigma[..., 0], sigma[..., 1]

    def _assemble(self, times, dynamics, lam) -> UncertaintyCurve:
        """Curve from its beta-free part and the Lambda of every time (None
        when eta = 0)."""
        a_inv, det_a, s1, s2 = dynamics
        xi = np.zeros((2, 2)) if lam is None else xi_matrix(a_inv, lam)
        xi1, xi2 = xi[..., 0, 0], xi[..., 1, 1]
        var_x = self.moments.var_xs0 + s1 + xi1
        var_p = self.moments.var_ps0 + s2 + xi2
        return UncertaintyCurve(
            t=times,
            var_x=var_x,
            var_p=var_p,
            u_sq=var_x * var_p,
            bound=lower_bound(self.moments, s1, s2, xi1, xi2),
            sigma1_sq=s1,
            sigma2_sq=s2,
            xi1_sq=xi1,
            xi2_sq=xi2,
            det_a=det_a,
        )

    def curve(self, times) -> UncertaintyCurve:
        """Every figure of merit on a 1-D time grid: the dynamics of all
        times in one pass, then one Lambda call per time when eta > 0
        (``bench/test_bench.py`` counts one traced call per curve time)."""
        times = _time_grid(times)
        dynamics = self._dynamics(times)
        lam = None
        if self.cfg.eta > 0:
            bath = [self.kernel]
            # a reshape, not a concatenate: an empty grid gives an empty curve
            lam = [lambda_covariance(self.table, bath, t) for t in times.tolist()]
            lam = np.reshape(lam, (-1, 2, 2))
        return self._assemble(times, dynamics, lam)

    def point(self, t: float) -> UncertaintyPoint:
        return self.curve([t])[0]

    def points(self, times, kernels) -> list[UncertaintyCurve]:
        """One curve per bath kernel of a list on a 1-D time grid or, for a
        row [[k_0, ..., k_{n-1}]] of one kernel per time, one curve of the
        pairs (times[i], k_i): the dynamics of all times in one pass and,
        when eta > 0, one Lambda call over every time and kernel, or every
        pair.  Each curve of a list equals ``curve(times)``, and row i of the
        pairs ``point(times[i])``, of an evaluator with that kernel."""
        times = _time_grid(times)
        lam = [None] * len(kernels)
        if self.cfg.eta > 0:
            lam = lambda_covariance(self.table, kernels, times)
        dynamics = self._dynamics(times)
        return [self._assemble(times, dynamics, lam_k) for lam_k in lam]
