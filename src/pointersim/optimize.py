"""Optimal measurement times and thermal-energy sweeps.

One search, :func:`find_optimal_time`, serves every sweep: a coarse
geometric scan guards against missed basins; golden-section refinement, in
lockstep over the landscapes, then locates each minimum of U^2(t).
Everything is deterministic: identical inputs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import GaussianMoments, MeasurementConfig
from .propagator import DEFAULT_MODE
from .uncertainty import CurveEvaluator

__all__ = [
    "SweepResult", "check_search", "golden_section", "find_optimal_time", "thermal_sweep",
]

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
#: smallest rel_tol of golden_section: below it the bracket would have to
#: shrink under the float spacing of its ends, and the search never stops
MIN_REL_TOL = 1e-12
#: fewest points of the coarse grid: a minimum needs one on each side
MIN_COARSE_POINTS = 3


@dataclass(frozen=True)
class SweepResult:
    """Per-thermal-energy optima of a sweep; flags are (inv_beta, text) in order."""

    inv_betas: np.ndarray
    t_opt: np.ndarray
    u_sq_min: np.ndarray
    #: lower bound of U^2 at each t_opt
    bound: np.ndarray
    flags: tuple


def _check_rel_tol(rel_tol) -> None:
    if not rel_tol >= MIN_REL_TOL:
        raise ConfigError(f"optimize.rel_tol must be >= {MIN_REL_TOL:g}")


def check_search(t_interval, coarse_points, rel_tol, inv_betas) -> np.ndarray:
    """``inv_betas`` as a float array, once the search settings pass their
    checks: ``0 < lo < hi`` for ``t_interval``, an integer of at least
    MIN_COARSE_POINTS coarse points, ``rel_tol >= MIN_REL_TOL``, and thermal
    energies positive and ascending.  NaN fails each check; the first that
    fails raises ConfigError, which is also a ValueError."""
    lo, hi = t_interval
    if not 0.0 < lo < hi:
        raise ConfigError("optimize.t_interval needs 0 < lo < hi")
    if not (isinstance(coarse_points, (int, np.integer)) and coarse_points >= MIN_COARSE_POINTS):
        raise ConfigError(f"need an integer coarse_points >= {MIN_COARSE_POINTS}, got {coarse_points!r}")
    _check_rel_tol(rel_tol)
    inv_betas = np.asarray(inv_betas, dtype=float)
    if not (np.all(inv_betas > 0) and np.all(np.diff(inv_betas) >= 0)):
        raise ConfigError("sweep inv_beta values must be positive and ascending")
    return inv_betas


def golden_section(f, a, b, rel_tol: float):
    """Golden-section search for the minimum of a unimodal f on the
    brackets [a_i, b_i] of 1-D arrays a and b, in lockstep; ConfigError (a
    ValueError) for a rel_tol below MIN_REL_TOL.

    Returns the arrays of the best times and of f's values there.  Each
    step makes one call f(t, which) on the new times t of the brackets
    ``which`` still open, and f returns one number per time.  The float64
    arithmetic gives a bracket the same steps as a search of its own.
    """
    _check_rel_tol(rel_tol)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    h = b - a
    c, d = b - _INV_PHI * h, a + _INV_PHI * h
    which = np.arange(a.size)
    fc, fd = np.reshape(f(np.concatenate((c, d)), np.tile(which, 2)), (2, -1))
    open_ = h > rel_tol * np.maximum(np.abs(a), np.abs(b))
    while open_.any():
        left = open_ & (fc < fd)  # the minimum is not right of d: [a, d]
        right = open_ & ~left
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        h = b - a
        c, d = np.where(left, b - _INV_PHI * h, c), np.where(right, a + _INV_PHI * h, d)
        new = np.empty(a.size)
        new[open_] = f(np.where(left, c, d)[open_], which[open_])
        fc, fd = np.where(left, new, fc), np.where(right, new, fd)
        open_ = h > rel_tol * np.maximum(np.abs(a), np.abs(b))
    better = fc < fd
    return np.where(better, c, d), np.where(better, fc, fd)


def _require_finite(t: np.ndarray, vals):
    """``vals``; NumericalError at the first time t_i whose value vals_i is
    not finite: the one check of the coarse scans and the refinements."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericalError(f"U^2 is not finite at t = {t[bad[0]]:.6g}")
    return vals


def _coarse_minimum(grid: np.ndarray, vals: np.ndarray):
    """The bracket of the refinement, the coarse points on each side of the
    best one, and the flag of the row: "" for none, ``multiple_minima`` with
    the local minima (t, value) within 1% of the best one when there is more
    than one, or, with no bracket, ``boundary_minimum`` when the best point
    is an end of the grid.  NumericalError at the first value that is not
    finite."""
    _require_finite(grid, vals)
    best = int(vals.argmin())
    if best == 0 or best == grid.size - 1:
        edge = f"minimum at interval edge t = {grid[best]:.6g}; widen the interval"
        return None, f"boundary_minimum: {edge}"
    interior = np.arange(1, grid.size - 1)
    local = interior[
        (vals[interior] <= vals[interior - 1]) & (vals[interior] <= vals[interior + 1])
    ]
    near = tuple((float(grid[i]), float(vals[i])) for i in local if vals[i] <= vals[best] * 1.01)
    flag = f"multiple_minima: {near}" if len(near) > 1 else ""
    return (float(grid[best - 1]), float(grid[best + 1])), flag


def find_optimal_time(grid, vals, f, rel_tol, names):
    """The minimum of each row of landscapes: arrays of the optimal times
    and of the values there, and the flags, (row, text) in row order.

    ``vals[row]`` is the landscape of ``row`` on the coarse ``grid``; a
    geometric grid is dense near the t -> 0 divergence.  A row whose
    coarse minimum is an end of the grid gets nan and a ``boundary_minimum``
    flag; near-degenerate local minima are flagged ``multiple_minima``, not
    resolved.  The other rows are refined by :func:`golden_section` in
    lockstep, each step one call f(t, rows) of the landscape at the pairs
    (t_j, rows_j).  A coarse or refinement value that is not finite raises
    NumericalError, and every NumericalError names its row by ``names[row]``:
    a refinement call that fails is repeated pair by pair to find the row.
    """
    flags, searched, brackets = [], [], []
    for row, at in enumerate(vals):
        try:
            bracket, flag = _coarse_minimum(grid, at)
        except NumericalError as exc:
            raise NumericalError(f"{exc}, {names[row]}") from exc
        if flag:
            flags.append((row, flag))
        if bracket:
            searched.append(row)
            brackets.append(bracket)
    searched = np.array(searched, dtype=int)

    def refine(t, which):
        rows = searched[which]
        try:
            return _require_finite(t, f(t, rows))
        except NumericalError:
            for j in range(t.size):
                try:
                    _require_finite(t[j : j + 1], f(t[j : j + 1], rows[j : j + 1]))
                except NumericalError as exc:
                    raise NumericalError(f"{exc}, {names[rows[j]]}") from exc
            raise

    lo, hi = np.reshape(brackets, (-1, 2)).T
    t_best, value_best = golden_section(refine, lo, hi, rel_tol)
    t_opt, value = np.full((2, len(vals)), np.nan)
    t_opt[searched], value[searched] = t_best, value_best
    return t_opt, value, tuple(flags)


def thermal_sweep(
    cfg: MeasurementConfig,
    moments: GaussianMoments,
    inv_betas,
    *,
    t_interval: tuple[float, float] = (0.02, 3.0),
    mode: str = DEFAULT_MODE,
    coarse_points: int = 60,
    rel_tol: float = 1e-5,
) -> SweepResult:
    """Optimal measurement time and minimal uncertainty per thermal energy:
    :func:`find_optimal_time` on U^2, a row per energy, flags keyed by
    inv_beta.  These keyword defaults are the CLI's too.

    The dynamics do not depend on the thermal energy, only the noise does.
    So the coarse scan is one ``points`` call for all energies at once: one
    propagation of the coarse grid and one ``lambda_covariance`` over its
    times and the bath kernels of all energies.  Each refinement step is one
    paired ``points`` call over the new times of the energies still open,
    whose bounds the sweep keeps for the optima.  ConfigError from
    :func:`check_search`, or from the coarse scan when the noise covariance
    on the outer mesh of every energy would be too many floats (see
    :meth:`PropagatorTable.mesh_state`).
    """
    inv_betas = check_search(t_interval, coarse_points, rel_tol, inv_betas)
    base = CurveEvaluator(cfg, moments, t_interval[1], mode)
    kernels = [base.with_inv_beta(float(ib)).kernel for ib in inv_betas]
    grid = np.geomspace(*t_interval, coarse_points)
    bounds = {}  # (energy, time) -> bound, of every pair the search evaluates

    def paired(t, rows):
        """U^2 of the pairs (t_j, energy rows_j) from one paired evaluation,
        whose bounds join ``bounds``."""
        curve = base.points(t, [[kernels[i] for i in rows]])[0]
        bounds.update(zip(zip(rows.tolist(), t.tolist()), curve.column("bound").tolist()))
        return curve.column("u_sq")

    vals = [curve.column("u_sq") for curve in base.points(grid, kernels)]
    names = [f"inv_beta = {ib:.12g}" for ib in inv_betas]
    t_opt, u_min, flags = find_optimal_time(grid, vals, paired, rel_tol, names)
    bound = np.array([bounds.get(key, np.nan) for key in enumerate(t_opt.tolist())])
    flags = tuple((float(inv_betas[row]), text) for row, text in flags)
    return SweepResult(inv_betas, t_opt, u_min, bound, flags=flags)
