"""Optimal measurement times and thermal-energy sweeps.

A coarse geometric scan guards against missed basins; golden-section
refinement then locates the minimum of the scalar uncertainty landscape.
Everything is deterministic: identical inputs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import BoundaryMinimum, NumericalError
from .model import GaussianMoments, MeasurementConfig
from .uncertainty import CurveEvaluator

__all__ = [
    "Optimum", "SweepResult", "golden_section", "find_optimal_time", "point_u_sq",
    "thermal_sweep",
]

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
#: smallest rel_tol of golden_section: below it the bracket would have to
#: shrink under the float spacing of its ends, and the search never stops
MIN_REL_TOL = 1e-12

#: key of a search over CurveEvaluator.point: the U^2 of the point
point_u_sq = attrgetter("u_sq")


@dataclass(frozen=True)
class Optimum:
    """Result of a single optimal-time search."""

    t_opt: float
    u_sq_min: float
    multiple_minima: bool = False
    #: coarse-grid candidates (t, value) within 1% of the best local minimum
    candidates: tuple = ()
    #: what the evaluator returned at t_opt; the UncertaintyPoint, with its
    #: bound, when the evaluator is CurveEvaluator.point
    at_opt: object = None


@dataclass(frozen=True)
class SweepResult:
    """Per-thermal-energy optima of a sweep."""

    inv_betas: np.ndarray
    t_opt: np.ndarray
    u_sq_min: np.ndarray
    #: lower bound of U^2 at each t_opt
    bound: np.ndarray
    flags: tuple = ()


def golden_section(f, a: float, b: float, rel_tol: float = 1e-5, key=float):
    """Golden-section search for the minimum of a unimodal key(f) on [a, b],
    returning the best t and f's value there; ValueError for a rel_tol
    below MIN_REL_TOL."""
    if not rel_tol >= MIN_REL_TOL:
        raise ValueError(f"rel_tol must be >= {MIN_REL_TOL:g}, got {rel_tol!r}")
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > rel_tol * max(abs(a), abs(b)):
        if key(fc) < key(fd):
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return (c, fc) if key(fc) < key(fd) else (d, fd)


def _coarse_grid(t_interval: tuple[float, float], coarse_points: int) -> np.ndarray:
    """Geometric coarse-scan grid on the interval, dense near t -> 0."""
    lo, hi = t_interval
    if not 0.0 < lo < hi:
        raise ValueError("interval must satisfy 0 < lo < hi")
    return np.geomspace(lo, hi, coarse_points)


def find_optimal_time(
    evaluator,
    t_interval: tuple[float, float] = (0.02, 3.0),
    coarse_points: int = 60,
    rel_tol: float = 1e-5,
    coarse_values=None,
    key=float,
) -> Optimum:
    """Locate the global minimum of a scalar landscape on (0, t_max].

    ``evaluator`` is a callable t -> value, and ``key`` maps its value to
    the number minimised; with ``CurveEvaluator.point`` and the key
    ``point_u_sq``, the optimum keeps the point at t_opt.
    The coarse grid is geometric, dense near the t -> 0 divergence.  A
    minimum sitting on an interval edge raises :class:`BoundaryMinimum`;
    near-degenerate local minima are reported, not resolved.
    ``coarse_values``, when given, are the values of ``evaluator`` on the
    coarse grid, computed elsewhere; only the refinement then calls
    ``evaluator``.  A coarse value that is not finite raises
    :class:`NumericalError`.
    """
    grid = _coarse_grid(t_interval, coarse_points)
    if coarse_values is None:
        vals = np.array([key(evaluator(float(t))) for t in grid])
    else:
        vals = np.asarray(coarse_values, dtype=float)
        if vals.shape != grid.shape:
            raise ValueError(f"need {coarse_points} coarse values, got {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericalError(f"U^2 is not finite at t = {grid[bad[0]]:.6g}")

    best = int(vals.argmin())
    if best == 0 or best == coarse_points - 1:
        raise BoundaryMinimum(
            f"minimum at interval edge t = {grid[best]:.6g}; widen the interval"
        )

    interior = np.arange(1, coarse_points - 1)
    local = interior[
        (vals[interior] <= vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    ]
    near = [
        (float(grid[i]), float(vals[i]))
        for i in local
        if vals[i] <= vals[best] * 1.01
    ]
    multiple = len(near) > 1

    t_opt, at_opt = golden_section(
        evaluator, float(grid[best - 1]), float(grid[best + 1]), rel_tol, key
    )
    return Optimum(
        t_opt=float(t_opt),
        u_sq_min=float(key(at_opt)),
        multiple_minima=multiple,
        candidates=tuple(near) if multiple else (),
        at_opt=at_opt,
    )


def thermal_sweep(
    cfg: MeasurementConfig,
    moments: GaussianMoments,
    inv_betas,
    t_interval: tuple[float, float] = (0.02, 3.0),
    mode: str = "renormalized",
    coarse_points: int = 60,
    rel_tol: float = 1e-5,
) -> SweepResult:
    """Optimal measurement time and minimal uncertainty per thermal energy.

    The dynamics do not depend on the thermal energy, only the noise does.
    So the coarse scan is one ``points`` call for all energies at once: one
    propagation of the coarse grid and one ``lambda_covariance`` over its
    times and the bath kernels of all energies.
    Each energy then only runs the golden-section refinement of
    :func:`find_optimal_time` on ``point`` of its own evaluator and its row
    of the coarse values; a row with a value that is not finite raises
    NumericalError, and every NumericalError of a search names its energy.
    ConfigError from the coarse scan when the noise covariance on the outer
    mesh of every energy would be too many floats (see
    :meth:`PropagatorTable.mesh_state`).
    """
    inv_betas = np.asarray(inv_betas, dtype=float)
    if np.any(inv_betas <= 0) or np.any(np.diff(inv_betas) < 0):
        raise ValueError("inv_beta values must be positive and ascending")
    base = CurveEvaluator(cfg, moments, t_interval[1], mode)
    evaluators = [base.with_inv_beta(float(ib)) for ib in inv_betas]
    kernels = [ev.kernel for ev in evaluators]
    grid = _coarse_grid(t_interval, coarse_points)
    coarse = np.array([c.column("u_sq") for c in base.points(grid, kernels)])

    t_opt, u_min, bound = np.full((3, inv_betas.size), np.nan)
    flags = []
    for i, (ib, ev) in enumerate(zip(inv_betas, evaluators)):
        try:
            opt = find_optimal_time(
                ev.point, t_interval, coarse_points, rel_tol, coarse_values=coarse[i],
                key=point_u_sq,
            )
        except BoundaryMinimum as exc:
            flags.append((float(ib), f"boundary_minimum: {exc}"))
            continue
        except NumericalError as exc:
            raise type(exc)(f"{exc}, inv_beta = {ib:.12g}") from exc
        t_opt[i], u_min[i], bound[i] = opt.t_opt, opt.u_sq_min, opt.at_opt.bound
        if opt.multiple_minima:
            flags.append((float(ib), f"multiple_minima: {opt.candidates}"))
    return SweepResult(
        inv_betas=inv_betas,
        t_opt=t_opt,
        u_sq_min=u_min,
        bound=bound,
        flags=tuple(flags),
    )
