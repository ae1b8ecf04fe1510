import gc
from dataclasses import fields

import numpy as np
import pytest

from pointersim.errors import NumericalError
from pointersim.model import MeasurementConfig
from pointersim.optimize import (
    MIN_REL_TOL,
    _coarse_minimum,
    check_search,
    find_optimal_time,
    golden_section,
    thermal_sweep,
)
from pointersim.uncertainty import CurveEvaluator, UncertaintyCurve, UncertaintyPoint


def _one_bracket(f, a, b, rel_tol=1e-5):
    """golden_section of a scalar f on the one bracket [a, b]."""
    (t,), (at,) = golden_section(lambda t, _: [f(x) for x in t], [a], [b], rel_tol)
    return t, at


def _search(landscape, t_interval=(0.02, 3.0), coarse_points=60, rel_tol=1e-5):
    """find_optimal_time of a scalar landscape as the one row "row 0", with
    the checks and the coarse grid of thermal_sweep: (t_opt, value, flags)."""
    check_search(t_interval, coarse_points, rel_tol, [1.0])
    grid = np.geomspace(*t_interval, coarse_points)
    vals = [np.array([landscape(float(t)) for t in grid])]

    def f(t, rows):
        return np.array([landscape(float(x)) for x in t])

    (t_opt,), (value,), flags = find_optimal_time(grid, vals, f, rel_tol, ["row 0"])
    return t_opt, value, flags


def test_golden_section_quadratic():
    t, v = _one_bracket(lambda x: (x - 1.3) ** 2 + 2.0, 0.5, 3.0, rel_tol=1e-8)
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
        _one_bracket(f, 0.5, 1.5, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        _search(f, (0.5, 1.5), coarse_points=7, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        thermal_sweep(closed_config, default_moments, [1.0], coarse_points=7, rel_tol=rel_tol)


def test_rel_tol_at_the_floor_converges():
    f = _at_most_500_calls(lambda t: (t - 1.0) ** 2)
    t, _ = _one_bracket(f, 0.5, 1.5, MIN_REL_TOL)
    assert t == pytest.approx(1.0, abs=1e-6)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        _search(lambda t: t, (0.0, 1.0))
    with pytest.raises(ValueError):
        _search(lambda t: t, (2.0, 1.0))
    for nan_interval in ((float("nan"), 1.0), (0.1, float("nan"))):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            _search(lambda t: t, nan_interval)


@pytest.mark.parametrize("coarse_points", [0, 1, 2, 3.5])
def test_coarse_grid_needs_three_points(coarse_points):
    """A minimum needs a grid point on each side: fewer than 3 points, or a
    count that is not an integer, is a bad argument, not an empty argmin, a
    minimum on an edge or numpy's TypeError."""
    with pytest.raises(ValueError, match="coarse_points >= 3"):
        _search(lambda t: (t - 1.0) ** 2, (0.1, 2.0), coarse_points=coarse_points)


def test_boundary_minimum_flagged():
    # monotone decreasing landscape has its minimum at the upper edge
    for landscape, edge in ((lambda t: -t, "2"), (lambda t: t, "0.1")):
        t_opt, value, flags = _search(landscape, (0.1, 2.0))
        assert np.isnan(t_opt) and np.isnan(value)
        assert flags == (
            (0, f"boundary_minimum: minimum at interval edge t = {edge}; widen the interval"),
        )


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_landscape_raises(bad):
    """A landscape that is not finite on the coarse grid is a numerical
    failure, not a minimum at an interval edge."""
    with pytest.raises(NumericalError, match="t = 0.02"):
        _search(lambda t: bad, (0.02, 3.0))
    with pytest.raises(NumericalError, match="not finite"):
        _search(lambda t: bad if t > 1.0 else t, (0.02, 3.0))


def test_closed_measurement_optimum(closed_config, default_moments):
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    t_opt, u_sq_min, flags = _search(lambda t: ev.point(t).u_sq)
    assert t_opt == pytest.approx(1.0191126276900606, rel=1e-4)
    assert u_sq_min == pytest.approx(1.2701141295859066, rel=1e-6)
    assert u_sq_min >= 1.0
    assert flags == ()


def test_multiple_minima_flagged():
    # two near-degenerate wells separated by a barrier
    def f(t):
        return 1.0 + 0.5 * (t - 0.5) ** 2 * (t - 2.0) ** 2

    grid = np.geomspace(0.1, 2.8, 60)
    vals = f(grid)
    local = [i for i in range(1, 59) if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]]
    candidates = tuple((float(grid[i]), float(vals[i])) for i in local)
    assert len(candidates) == 2
    assert _search(f, (0.1, 2.8))[2] == ((0, f"multiple_minima: {candidates}"),)


def test_optimal_time_shrinks_with_temperature(open_config, default_moments):
    base = CurveEvaluator(open_config, default_moments, 3.0)
    cold = base.with_inv_beta(1.0)
    hot = base.with_inv_beta(2.0)
    t_cold = _search(lambda t: cold.point(t).u_sq)[0]
    t_hot = _search(lambda t: hot.point(t).u_sq)[0]
    assert t_hot < t_cold


def test_refinement_consistency(closed_config, default_moments):
    """Halving the coarse spacing moves t_opt by a refinement-scale amount."""
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    t60 = _search(lambda t: ev.point(t).u_sq, coarse_points=60)[0]
    t120 = _search(lambda t: ev.point(t).u_sq, coarse_points=120)[0]
    assert abs(t120 - t60) < 10 * 1e-5 * max(t60, 1.0)


def test_sweep_rejects_bad_grid(open_config, default_moments):
    with pytest.raises(ValueError):
        thermal_sweep(open_config, default_moments, [2.0, 1.0])
    with pytest.raises(ValueError):
        thermal_sweep(open_config, default_moments, [-1.0, 1.0])
    for nan_grid in ([float("nan")], [1.0, float("nan")], [float("nan"), 1.0]):
        with pytest.raises(ValueError, match="positive and ascending"):
            thermal_sweep(open_config, default_moments, nan_grid)


def test_single_point_sweep_matches_direct(open_config, default_moments):
    result = thermal_sweep(open_config, default_moments, [1.0])
    ev = CurveEvaluator(open_config, default_moments, 3.0).with_inv_beta(1.0)
    t_opt, u_sq_min, _ = _search(lambda t: ev.point(t).u_sq)
    assert result.t_opt[0] == pytest.approx(t_opt, rel=1e-10)
    assert result.u_sq_min[0] == pytest.approx(u_sq_min, rel=1e-10)
    assert result.flags == ()


def test_sweep_boundary_flagged_not_raised(closed_config, default_moments):
    # interval chosen so the known minimum near t = 1.02 sits outside
    result = thermal_sweep(
        closed_config, default_moments, [1.0], t_interval=(0.02, 0.5)
    )
    assert np.isnan(result.t_opt[0])
    assert len(result.flags) == 1
    assert "boundary_minimum" in result.flags[0][1]


def _two_wells(t):
    return 1.0 + 0.5 * (t - 0.5) ** 2 * (t - 2.0) ** 2


def test_coarse_minimum_is_the_scan_of_find_optimal_time():
    """find_optimal_time refines the bracket of its coarse row and flags
    the row with its coarse minimum's flag."""
    grid = np.geomspace(0.1, 2.8, 60)
    (lo, hi), flag = _coarse_minimum(grid, np.array([_two_wells(t) for t in grid]))
    t_opt, value, flags = _search(_two_wells, (0.1, 2.8))
    assert flags == ((0, flag),) and flag.startswith("multiple_minima: ((")
    assert _one_bracket(_two_wells, lo, hi) == (t_opt, value)
    assert _coarse_minimum(grid, grid) == (
        None, "boundary_minimum: minimum at interval edge t = 0.1; widen the interval"
    )


def test_find_optimal_time_refuses_a_refinement_value_that_is_not_finite():
    """Finite on the 60 coarse times and nan between them: the first
    refinement value is refused, as a coarse one would be."""
    grid = set(np.geomspace(0.02, 3.0, 60).tolist())
    with pytest.raises(NumericalError, match="U\\^2 is not finite at t = 0.978214, row 0$"):
        _search(lambda t: (t - 1.0) ** 2 if t in grid else float("nan"))


_ROWS = {
    "quadratic": lambda t: (t - 1.3) ** 2 + 2.0,
    "two wells": _two_wells,
    "boundary": lambda t: -t,
}


@pytest.mark.parametrize("error", [None, NumericalError("noise covariance eigenvalue")],
                         ids=["non-finite", "raised"])
def test_search_over_several_rows(error):
    """One search over a quadratic, a two-well and a boundary row: each
    searched row has the bits of its own search, the boundary row is nan,
    the flags come in row order, and a refinement error that only the
    two-well row raises names that row."""
    names = list(_ROWS)
    landscapes = list(_ROWS.values())
    grid = np.geomspace(0.1, 2.8, 60)
    vals = [np.array([g(float(t)) for t in grid]) for g in landscapes]
    calls = []

    def f(t, rows):
        calls.append(rows.tolist())
        return np.array([landscapes[r](x) for x, r in zip(t.tolist(), rows.tolist())])

    t_opt, value, flags = find_optimal_time(grid, vals, f, 1e-5, names)
    for row in (0, 1):
        alone, alone_value, _ = _search(landscapes[row], (0.1, 2.8))
        assert (t_opt[row], value[row]) == (alone, alone_value)
    assert np.isnan(t_opt[2]) and np.isnan(value[2])
    assert flags == tuple((row, _coarse_minimum(grid, vals[row])[1]) for row in (1, 2))
    assert all(2 not in rows for rows in calls)

    def failing(t, rows):
        if error is not None and 1 in rows:
            raise error
        return np.where(rows == 1, np.nan, f(t, rows))

    expected = "noise covariance eigenvalue" if error else "U\\^2 is not finite at t = "
    with pytest.raises(NumericalError, match=f"^{expected}.*, two wells$"):
        find_optimal_time(grid, vals, failing, 1e-5, names)


def _python_golden_section(f, a, b, rel_tol):
    """Reference: the one-bracket search in Python floats, as it was before
    the brackets stepped in lockstep."""
    inv_phi = (5.0**0.5 - 1.0) / 2.0
    h = b - a
    c, d = b - inv_phi * h, a + inv_phi * h
    fc, fd = f(c), f(d)
    while h > rel_tol * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - inv_phi * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + inv_phi * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-9, MIN_REL_TOL])
def test_golden_section_gives_the_bits_of_the_python_float_search(rel_tol):
    """Float64 array arithmetic takes the steps, and gives the bits, of the
    search in Python floats, on both branches, a flat stretch and NaN."""
    cases = [
        (lambda t: (t - 1.3) ** 2 + 2.0, 0.5, 3.0),
        (lambda t: -np.sin(3.0 * t) / t, 0.1, 1.2),
        (lambda t: max(abs(t - 0.7), 0.05), 0.2, 1.9),
        (lambda t: float("nan") if t > 1.5 else (t - 1.0) ** 2, 0.3, 2.4),
    ]
    for f, a, b in cases:
        t, v = _one_bracket(f, a, b, rel_tol)
        t_ref, v_ref = _python_golden_section(f, a, b, rel_tol)
        assert t == t_ref and (v == v_ref or np.isnan(v) and np.isnan(v_ref))


def test_lockstep_golden_section_steps_each_bracket_as_alone():
    """Brackets searched together take the steps, and give the bits, of a
    search of their own; each step calls f once, on the open brackets."""
    wells = [lambda t, c=c: (t - c) ** 2 * (1.0 + t) for c in (0.3, 1.1, 1.7, 2.6)]
    lo, hi = np.array([0.1, 0.5, 1.5, 2.5]), np.array([0.9, 1.2, 1.9, 2.9])
    calls = []

    def f(t, which):
        calls.append(which.tolist())
        return [wells[i](x) for x, i in zip(t.tolist(), which.tolist())]

    t, values = golden_section(f, lo, hi, rel_tol=1e-9)
    alone = [_one_bracket(w, a, b, rel_tol=1e-9) for w, a, b in zip(wells, lo, hi)]
    assert t.tolist() == [x for x, _ in alone] and values.tolist() == [v for _, v in alone]
    assert calls[0] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(calls) > 30 and all(c == sorted(set(c)) for c in calls[1:])


def test_lockstep_golden_section_of_no_bracket():
    t, values = golden_section(lambda t, which: [], np.zeros(0), np.zeros(0), 1e-5)
    assert t.size == 0 and values.size == 0


def _sweep_equals_per_energy_search(cfg, moments, inv_betas, mode, **kw):
    """The sweep against a search of its own on point per energy, bit for
    bit, flags included."""
    result = thermal_sweep(cfg, moments, inv_betas, mode=mode, **kw)
    base = CurveEvaluator(cfg, moments, kw.get("t_interval", (0.02, 3.0))[1], mode)
    search = {k: kw[k] for k in ("t_interval", "coarse_points") if k in kw}
    flags = []
    for i, ib in enumerate(inv_betas):
        ev = base.with_inv_beta(ib)
        t_opt, u_sq_min, row_flags = _search(lambda t: ev.point(t).u_sq, **search)
        flags += [(ib, text) for _, text in row_flags]
        if np.isnan(t_opt):
            assert np.isnan([result.t_opt[i], result.u_sq_min[i], result.bound[i]]).all()
            assert np.isnan(u_sq_min) and row_flags[0][1].startswith("boundary_minimum: ")
            continue
        assert result.t_opt[i] == t_opt
        assert result.u_sq_min[i] == u_sq_min
        assert result.bound[i] == ev.point(t_opt).bound
    assert result.flags == tuple(flags)
    return result


def test_batched_sweep_matches_per_beta_search(open_config, default_moments):
    """The batched coarse scan and the lockstep refinement give the
    per-beta optima, including a thermal energy whose minimum lies beyond
    the interval."""
    result = _sweep_equals_per_energy_search(
        open_config, default_moments, [0.5, 5.0, 8.0], "renormalized",
        t_interval=(0.1, 0.8), coarse_points=30,
    )
    assert np.isnan(result.t_opt[0]) and not np.isnan(result.t_opt[1:]).any()
    assert [ib for ib, _ in result.flags] == [0.5]
    assert "boundary_minimum" in result.flags[0][1]


_ASSEMBLE = CurveEvaluator._assemble


def _two_well_assemble(self, times, dynamics, lam):
    """A two-well U^2 landscape, 1e-4 of xi1_sq apart between energies."""
    curve = _ASSEMBLE(self, times, dynamics, lam)
    columns = {f.name: curve.column(f.name) for f in fields(UncertaintyPoint)}
    columns["u_sq"] = _two_wells(curve.column("t")) + 1e-4 * curve.column("xi1_sq")
    return UncertaintyCurve(**columns)


def test_batched_sweep_matches_per_beta_multiple_minima(
    open_config, default_moments, monkeypatch
):
    """Same check on a two-well landscape: both paths flag the same
    near-degenerate minima."""
    monkeypatch.setattr(CurveEvaluator, "_assemble", _two_well_assemble)
    result = _sweep_equals_per_energy_search(
        open_config, default_moments, [1.0, 3.0], "renormalized",
        t_interval=(0.1, 2.8), coarse_points=30,
    )
    assert [ib for ib, _ in result.flags] == [1.0, 3.0]
    for _, flag in result.flags:
        assert flag.startswith("multiple_minima: ((")


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lockstep_sweep_equals_per_energy_search_on_the_default(
    open_config, default_moments, mode
):
    inv_betas = np.linspace(0.5, 5.0, 10).tolist()
    result = _sweep_equals_per_energy_search(open_config, default_moments, inv_betas, mode)
    assert result.flags == ()


def test_lockstep_sweep_equals_per_energy_search_over_13_energies(default_moments):
    cfg = MeasurementConfig(eta=0.4, omega_c=33.0)
    inv_betas = np.geomspace(0.2, 8.0, 13).tolist()
    _sweep_equals_per_energy_search(cfg, default_moments, inv_betas, "renormalized")


def test_sweep_with_every_energy_on_a_boundary(open_config, default_moments):
    result = thermal_sweep(open_config, default_moments, [0.5, 1.0], t_interval=(0.02, 0.3))
    assert np.isnan(result.t_opt).all() and np.isnan(result.bound).all()
    assert [flag.split(":")[0] for _, flag in result.flags] == ["boundary_minimum"] * 2


def test_sweep_leaves_no_reference_cycle(open_config, default_moments):
    """A cycle would hold each sweep's propagator table and mesh cache until
    the cyclic collector runs, and so raise the peak memory of a long run."""
    gc.collect()
    thermal_sweep(open_config, default_moments, [0.5, 1.0])
    assert gc.collect() == 0


def _fail_at_one_energy(monkeypatch, inv_beta, error=None):
    """CurveEvaluator.points with U^2 not finite (or ``error`` raised) at
    the pairs of one thermal energy, in paired calls, the refinement's, only."""
    points = CurveEvaluator.points

    def patched(self, times, kernels):
        curves = points(self, times, kernels)
        if not (kernels and isinstance(kernels[0], list)):
            return curves
        hit = np.array([k.inv_beta == inv_beta for k in kernels[0]], dtype=bool)
        if hit.any() and error is not None:
            raise error
        columns = {f.name: curves[0].column(f.name) for f in fields(UncertaintyPoint)}
        columns["u_sq"] = np.where(hit, np.nan, columns["u_sq"])
        return [UncertaintyCurve(**columns)]

    monkeypatch.setattr(CurveEvaluator, "points", patched)


@pytest.mark.parametrize("error", [None, NumericalError("noise covariance eigenvalue")],
                         ids=["non-finite", "raised"])
def test_lockstep_refinement_error_names_its_energy(
    open_config, default_moments, monkeypatch, error
):
    _fail_at_one_energy(monkeypatch, 2.0, error)
    expected = "eigenvalue" if error else "U\\^2 is not finite at t = "
    with pytest.raises(NumericalError, match=f"{expected}.*, inv_beta = 2$"):
        thermal_sweep(open_config, default_moments, [0.5, 1.0, 2.0, 4.0])
