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


def golden_section(f, a, b, rel_tol: float = 1e-5, key=float):
    """Golden-section search for the minimum of a unimodal key(f) on [a, b],
    returning the best t and f's value there; ValueError for a rel_tol
    below MIN_REL_TOL.

    With 1-D arrays a and b it searches the brackets [a_i, b_i] in lockstep
    and returns the array of best times and the list of f's values there.
    Each step then makes one call f(t, which) on the new times t of the
    brackets ``which`` still open, and f returns one value per time.  The
    float64 arithmetic gives a bracket the same steps as a search of its own.
    """
    if not rel_tol >= MIN_REL_TOL:
        raise ValueError(f"rel_tol must be >= {MIN_REL_TOL:g}, got {rel_tol!r}")
    if np.ndim(a) == 0:  # one bracket: f of one time
        t, at = golden_section(lambda t, _: [f(x) for x in t], [a], [b], rel_tol, key)
        return t[0], at[0]
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    h = b - a
    c, d = b - _INV_PHI * h, a + _INV_PHI * h
    # every value of f and its key; per bracket, the index of its value at c and at d
    which = np.arange(a.size)
    seen = list(f(np.concatenate((c, d)), np.tile(which, 2)))
    keys = np.array([key(v) for v in seen], dtype=float)
    at_c, at_d = which, which + a.size
    open_ = h > rel_tol * np.maximum(np.abs(a), np.abs(b))
    while open_.any():
        left = open_ & (keys[at_c] < keys[at_d])  # the minimum is not right of d: [a, d]
        right = open_ & ~left
        b, d, at_d = np.where(left, d, b), np.where(left, c, d), np.where(left, at_c, at_d)
        a, c, at_c = np.where(right, c, a), np.where(right, d, c), np.where(right, at_d, at_c)
        h = b - a
        c, d = np.where(left, b - _INV_PHI * h, c), np.where(right, a + _INV_PHI * h, d)
        new = f(np.where(left, c, d)[open_], which[open_])
        fresh = len(seen) - 1 + np.cumsum(open_)  # where the new value of an open bracket goes
        at_c, at_d = np.where(left, fresh, at_c), np.where(right, fresh, at_d)
        seen.extend(new)
        keys = np.append(keys, [key(v) for v in new])
        open_ = h > rel_tol * np.maximum(np.abs(a), np.abs(b))
    better = keys[at_c] < keys[at_d]
    return np.where(better, c, d), [seen[i] for i in np.where(better, at_c, at_d)]


def _coarse_grid(t_interval: tuple[float, float], coarse_points: int) -> np.ndarray:
    """Geometric coarse-scan grid on the interval, dense near t -> 0; a
    minimum needs a point on each side, so at least 3 points."""
    lo, hi = t_interval
    if not 0.0 < lo < hi:
        raise ValueError("interval must satisfy 0 < lo < hi")
    if not coarse_points >= 3:
        raise ValueError(f"need coarse_points >= 3, got {coarse_points!r}")
    return np.geomspace(lo, hi, coarse_points)


def _require_finite(t: np.ndarray, vals) -> None:
    """NumericalError at the first time t_i whose value vals_i is not finite:
    the one check of the coarse scans and the refinements."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericalError(f"U^2 is not finite at t = {t[bad[0]]:.6g}")


def _coarse_minimum(grid: np.ndarray, vals: np.ndarray):
    """The coarse points on each side of the best one, as the bracket of the
    refinement, and the local minima (t, value) within 1% of the best one
    when there is more than one, else ().  NumericalError at the first value
    that is not finite; BoundaryMinimum when the best point is an end of the
    grid."""
    _require_finite(grid, vals)
    best = int(vals.argmin())
    if best == 0 or best == grid.size - 1:
        raise BoundaryMinimum(
            f"minimum at interval edge t = {grid[best]:.6g}; widen the interval"
        )
    interior = np.arange(1, grid.size - 1)
    local = interior[
        (vals[interior] <= vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    ]
    near = tuple((float(grid[i]), float(vals[i])) for i in local if vals[i] <= vals[best] * 1.01)
    return float(grid[best - 1]), float(grid[best + 1]), near if len(near) > 1 else ()


def _paired_points(ev: CurveEvaluator, t: np.ndarray, kernels) -> list:
    """The points of the pairs (t_j, kernels_j), from one paired evaluation;
    NumericalError at the first U^2 that is not finite."""
    curve = ev.points(t, [kernels])[0]
    _require_finite(t, curve.column("u_sq"))
    return list(curve)


def find_optimal_time(
    evaluator,
    t_interval: tuple[float, float] = (0.02, 3.0),
    coarse_points: int = 60,
    rel_tol: float = 1e-5,
    key=float,
) -> Optimum:
    """Locate the global minimum of a scalar landscape on (0, t_max].

    ``evaluator`` is a callable t -> value, and ``key`` maps its value to
    the number minimised; with ``CurveEvaluator.point`` and the key
    ``point_u_sq``, the optimum keeps the point at t_opt.
    The coarse grid is geometric, dense near the t -> 0 divergence.  A
    coarse or refinement value that is not finite raises
    :class:`NumericalError`, and a minimum sitting on an interval edge
    :class:`BoundaryMinimum`; near-degenerate local minima are reported, not
    resolved.
    """
    grid = _coarse_grid(t_interval, coarse_points)
    vals = np.array([key(evaluator(float(t))) for t in grid])
    lo, hi, near = _coarse_minimum(grid, vals)

    def refine(t, _):
        at = [evaluator(float(x)) for x in t]
        _require_finite(t, [key(v) for v in at])
        return at

    (t_opt,), (at_opt,) = golden_section(refine, [lo], [hi], rel_tol, key)
    return Optimum(
        t_opt=float(t_opt),
        u_sq_min=float(key(at_opt)),
        multiple_minima=bool(near),
        candidates=near,
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
    times and the bath kernels of all energies.  The golden-section
    refinements of all energies then run in lockstep, each step one paired
    ``points`` call over the new times of the energies still open.  Every
    energy probes the times, and gets the optimum and the flags, of its own
    :func:`find_optimal_time` on ``point``.  A coarse or refinement value
    that is not finite raises NumericalError, and every NumericalError of a
    search names its energy.  ConfigError from the coarse scan when the
    noise covariance on the outer mesh of every energy would be too many
    floats (see :meth:`PropagatorTable.mesh_state`).
    """
    inv_betas = np.asarray(inv_betas, dtype=float)
    if np.any(inv_betas <= 0) or np.any(np.diff(inv_betas) < 0):
        raise ValueError("inv_beta values must be positive and ascending")
    base = CurveEvaluator(cfg, moments, t_interval[1], mode)
    kernels = [base.with_inv_beta(float(ib)).kernel for ib in inv_betas]
    grid = _coarse_grid(t_interval, coarse_points)

    flags, searched, brackets = [], [], []
    for i, (ib, curve) in enumerate(zip(inv_betas, base.points(grid, kernels))):
        try:
            lo, hi, near = _coarse_minimum(grid, curve.column("u_sq"))
        except BoundaryMinimum as exc:
            flags.append((float(ib), f"boundary_minimum: {exc}"))
            continue
        except NumericalError as exc:
            raise NumericalError(f"{exc}, inv_beta = {ib:.12g}") from exc
        if near:
            flags.append((float(ib), f"multiple_minima: {near}"))
        searched.append(i)
        brackets.append((lo, hi))

    def refine(t, which):
        """The points of the pairs (t_j, energy of bracket which_j) from one
        paired evaluation; a NumericalError names the energy whose pair
        fails alone too."""
        bath = [kernels[searched[j]] for j in which]
        try:
            return _paired_points(base, t, bath)
        except NumericalError:
            for j, kernel in enumerate(bath):
                try:
                    _paired_points(base, t[j : j + 1], [kernel])
                except NumericalError as exc:
                    raise NumericalError(f"{exc}, inv_beta = {kernel.inv_beta:.12g}") from exc
            raise

    lo, hi = np.reshape(brackets, (-1, 2)).T
    t_best, at_best = golden_section(refine, lo, hi, rel_tol, point_u_sq)
    t_opt, u_min, bound = np.full((3, inv_betas.size), np.nan)
    t_opt[searched] = t_best
    u_min[searched] = [p.u_sq for p in at_best]
    bound[searched] = [p.bound for p in at_best]
    return SweepResult(
        inv_betas=inv_betas,
        t_opt=t_opt,
        u_sq_min=u_min,
        bound=bound,
        flags=tuple(flags),
    )
