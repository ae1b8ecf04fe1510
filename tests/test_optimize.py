from dataclasses import fields

import numpy as np
import pytest

from pointersim.errors import BoundaryMinimum, NumericalError
from pointersim.model import MeasurementConfig, gaussian_state_moments
from pointersim.optimize import (
    MIN_REL_TOL,
    find_optimal_time,
    golden_section,
    point_u_sq,
    thermal_sweep,
)
from pointersim.uncertainty import CurveEvaluator, UncertaintyCurve, UncertaintyPoint


def test_golden_section_quadratic():
    t, v = golden_section(lambda x: (x - 1.3) ** 2 + 2.0, 0.5, 3.0, rel_tol=1e-8)
    assert t == pytest.approx(1.3, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-10)


def _at_most_500_calls(f):
    """f, failing from its 501st call on, so a search that never stops
    fails instead of hanging."""
    calls = []

    def limited(t):
        calls.append(t)
        if len(calls) > 500:
            raise RuntimeError("more than 500 evaluations")
        return f(t)

    return limited


@pytest.mark.parametrize("rel_tol", [1e-20, 0.0, float("nan")])
def test_rel_tol_below_the_floor_is_rejected(closed_config, default_moments, rel_tol):
    f = _at_most_500_calls(lambda t: (t - 1.0) ** 2)
    with pytest.raises(ValueError, match="rel_tol"):
        golden_section(f, 0.5, 1.5, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        find_optimal_time(f, (0.5, 1.5), coarse_points=7, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        thermal_sweep(closed_config, default_moments, [1.0], coarse_points=7, rel_tol=rel_tol)


def test_rel_tol_at_the_floor_converges():
    f = _at_most_500_calls(lambda t: (t - 1.0) ** 2)
    t, _ = golden_section(f, 0.5, 1.5, MIN_REL_TOL)
    assert t == pytest.approx(1.0, abs=1e-6)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        find_optimal_time(lambda t: t, (0.0, 1.0))
    with pytest.raises(ValueError):
        find_optimal_time(lambda t: t, (2.0, 1.0))


def test_boundary_minimum_raised():
    # monotone decreasing landscape has its minimum at the upper edge
    with pytest.raises(BoundaryMinimum):
        find_optimal_time(lambda t: -t, (0.1, 2.0))
    with pytest.raises(BoundaryMinimum):
        find_optimal_time(lambda t: t, (0.1, 2.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_landscape_raises(bad):
    """A landscape that is not finite on the coarse grid is a numerical
    failure, not a minimum at an interval edge."""
    grid = np.geomspace(0.02, 3.0, 60)
    with pytest.raises(NumericalError, match="t = 0.02"):
        find_optimal_time(lambda t: bad, (0.02, 3.0))
    partly = np.where(grid > 1.0, bad, grid)
    with pytest.raises(NumericalError, match="not finite"):
        find_optimal_time(lambda t: t, (0.02, 3.0), coarse_values=partly)


def test_closed_measurement_optimum(closed_config, default_moments):
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    opt = find_optimal_time(ev.point, key=point_u_sq)
    assert opt.t_opt == pytest.approx(1.0191126276900606, rel=1e-4)
    assert opt.u_sq_min == pytest.approx(1.2701141295859066, rel=1e-6)
    assert opt.u_sq_min >= 1.0
    assert not opt.multiple_minima
    assert opt.candidates == ()


def test_multiple_minima_flagged():
    # two near-degenerate wells separated by a barrier
    def f(t):
        return 1.0 + 0.5 * (t - 0.5) ** 2 * (t - 2.0) ** 2

    opt = find_optimal_time(f, (0.1, 2.8))
    assert opt.multiple_minima
    assert len(opt.candidates) == 2


def test_optimal_time_shrinks_with_temperature(open_config, default_moments):
    base = CurveEvaluator(open_config, default_moments, 3.0)
    cold = base.with_inv_beta(1.0)
    hot = base.with_inv_beta(2.0)
    t_cold = find_optimal_time(cold.point, key=point_u_sq).t_opt
    t_hot = find_optimal_time(hot.point, key=point_u_sq).t_opt
    assert t_hot < t_cold


def test_refinement_consistency(closed_config, default_moments):
    """Halving the coarse spacing moves t_opt by a refinement-scale amount."""
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    t60 = find_optimal_time(ev.point, coarse_points=60, key=point_u_sq).t_opt
    t120 = find_optimal_time(ev.point, coarse_points=120, key=point_u_sq).t_opt
    assert abs(t120 - t60) < 10 * 1e-5 * max(t60, 1.0)


def test_sweep_rejects_bad_grid(open_config, default_moments):
    with pytest.raises(ValueError):
        thermal_sweep(open_config, default_moments, [2.0, 1.0])
    with pytest.raises(ValueError):
        thermal_sweep(open_config, default_moments, [-1.0, 1.0])


def test_single_point_sweep_matches_direct(open_config, default_moments):
    result = thermal_sweep(open_config, default_moments, [1.0])
    ev = CurveEvaluator(open_config, default_moments, 3.0).with_inv_beta(1.0)
    direct = find_optimal_time(ev.point, key=point_u_sq)
    assert result.t_opt[0] == pytest.approx(direct.t_opt, rel=1e-10)
    assert result.u_sq_min[0] == pytest.approx(direct.u_sq_min, rel=1e-10)
    assert result.flags == ()


def test_sweep_boundary_flagged_not_raised(closed_config, default_moments):
    # interval chosen so the known minimum near t = 1.02 sits outside
    result = thermal_sweep(
        closed_config, default_moments, [1.0], t_interval=(0.02, 0.5)
    )
    assert np.isnan(result.t_opt[0])
    assert len(result.flags) == 1
    assert "boundary_minimum" in result.flags[0][1]


def _per_beta_optima(cfg, moments, inv_betas, t_interval, coarse_points):
    """Reference: one full find_optimal_time scan per thermal energy."""
    base = CurveEvaluator(cfg, moments, t_interval[1])
    rows = []
    for ib in inv_betas:
        try:
            opt = find_optimal_time(
                base.with_inv_beta(ib).point, t_interval, coarse_points, key=point_u_sq
            )
        except BoundaryMinimum:
            rows.append((np.nan, np.nan, ()))
            continue
        rows.append((opt.t_opt, opt.u_sq_min, opt.candidates))
    return rows


def _assert_sweep_matches(result, rows):
    t_ref = np.array([r[0] for r in rows])
    u_ref = np.array([r[1] for r in rows])
    np.testing.assert_allclose(result.t_opt, t_ref, rtol=1e-12, equal_nan=True)
    np.testing.assert_allclose(result.u_sq_min, u_ref, rtol=1e-12, equal_nan=True)


def test_batched_sweep_matches_per_beta_search(open_config, default_moments):
    """The batched coarse scan gives the per-beta optima, including a
    thermal energy whose minimum lies beyond the interval."""
    inv_betas, interval = [0.5, 5.0, 8.0], (0.1, 0.8)
    result = thermal_sweep(
        open_config, default_moments, inv_betas, t_interval=interval, coarse_points=30
    )
    rows = _per_beta_optima(open_config, default_moments, inv_betas, interval, 30)
    _assert_sweep_matches(result, rows)
    assert np.isnan(result.t_opt[0]) and not np.isnan(result.t_opt[1:]).any()
    assert [ib for ib, _ in result.flags] == [0.5]
    assert "boundary_minimum" in result.flags[0][1]


def test_batched_sweep_matches_per_beta_multiple_minima(
    open_config, default_moments, monkeypatch
):
    """Same check on a two-well landscape: both paths flag the same
    near-degenerate minima."""
    original = CurveEvaluator._assemble

    def two_wells(self, times, dynamics, lam):
        curve = original(self, times, dynamics, lam)
        t = curve.column("t")
        well = 1.0 + 0.5 * (t - 0.5) ** 2 * (t - 2.0) ** 2
        columns = {f.name: curve.column(f.name) for f in fields(UncertaintyPoint)}
        columns["u_sq"] = well + 1e-4 * curve.column("xi1_sq")
        return UncertaintyCurve(**columns)

    monkeypatch.setattr(CurveEvaluator, "_assemble", two_wells)
    inv_betas, interval = [1.0, 3.0], (0.1, 2.8)
    result = thermal_sweep(
        open_config, default_moments, inv_betas, t_interval=interval, coarse_points=30
    )
    rows = _per_beta_optima(open_config, default_moments, inv_betas, interval, 30)
    _assert_sweep_matches(result, rows)
    assert [ib for ib, _ in result.flags] == inv_betas
    for (_, flag), row in zip(result.flags, rows):
        assert len(row[2]) == 2
        assert flag == f"multiple_minima: {row[2]}"


def test_precomputed_coarse_values_match_scan():
    def f(t):
        return 1.0 + 0.5 * (t - 0.5) ** 2 * (t - 2.0) ** 2

    grid = np.geomspace(0.1, 2.8, 60)
    scanned = find_optimal_time(f, (0.1, 2.8))
    given = find_optimal_time(f, (0.1, 2.8), coarse_values=[f(t) for t in grid])
    assert given == scanned
    with pytest.raises(BoundaryMinimum):
        find_optimal_time(f, (0.1, 2.8), coarse_values=grid)
    with pytest.raises(ValueError):
        find_optimal_time(f, (0.1, 2.8), coarse_values=grid[:-1])
