import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointersim.errors import ConfigError, NumericalError
from pointersim.kernels import BathKernel
from pointersim.model import MeasurementConfig, gaussian_state_moments
from pointersim.noise import PropagatorTable, lambda_covariance, xi_matrix
from pointersim.propagator import build_generator, checked_inverse, response_matrices
from pointersim.uncertainty import CurveEvaluator, lower_bound


def inferred_variances(moments, sigma1_sq, sigma2_sq, xi1_sq, xi2_sq):
    """Three-part sums for the inferred position and momentum variances."""
    return moments.var_xs0 + sigma1_sq + xi1_sq, moments.var_ps0 + sigma2_sq + xi2_sq


def pointer_contributions(a, b, cov_j):
    """sigma_1^2, sigma_2^2 = v_k cov_J v_k^T with rows v_k of A^-1 B."""
    v = checked_inverse(a) @ b
    return float(v[0] @ cov_j @ v[0]), float(v[1] @ cov_j @ v[1])


def expanded_uncertainty(moments, sigma1_sq, sigma2_sq, xi1_sq, xi2_sq):
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


def wodkiewicz_f(u_min_sq):
    """Both branches of f = -1 +/- 2*sqrt(U_min^2)."""
    root = 2.0 * np.sqrt(u_min_sq)
    return (-1.0 - root, -1.0 + root)


def matching_distance(moments, sigma1_sq, sigma2_sq):
    """Distance from the bound-saturating matching conditions
    sigma_1 = DX_S(0), sigma_2 = DP_S(0)."""
    return (
        float(np.sqrt(sigma1_sq) - moments.dx_s0),
        float(np.sqrt(sigma2_sq) - moments.dp_s0),
    )


def _per_point_curve(cfg, moments, times, mode):
    """Columns of a curve evaluated one time at a time: a table read of K
    and G, 2-D response matrices, the adjugate inverse,
    sigma_k^2 = v_k cov_J v_k^T, Lambda and a 2-D xi_matrix per time."""
    gen = build_generator(cfg, mode)
    table = PropagatorTable(gen, float(times.max()))
    kernel = BathKernel.from_config(cfg)
    cov_j = moments.cov_j
    rows = []
    for t in times.tolist():
        k, g, _ = table.propagators(t)
        a, b, det_a = response_matrices(k, g)
        a_inv = checked_inverse(a)
        v = a_inv @ b
        s1, s2 = float(v[0] @ cov_j @ v[0]), float(v[1] @ cov_j @ v[1])
        xi1 = xi2 = 0.0
        if cfg.eta > 0:
            xi = xi_matrix(a_inv, lambda_covariance(table, [kernel], t)[0])
            xi1, xi2 = float(xi[0, 0]), float(xi[1, 1])
        var_x, var_p = inferred_variances(moments, s1, s2, xi1, xi2)
        bound = lower_bound(moments, s1, s2, xi1, xi2)
        rows.append((t, var_x, var_p, var_x * var_p, bound, s1, s2, xi1, xi2, det_a))
    names = ("t", "var_x", "var_p", "u_sq", "bound", "sigma1_sq", "sigma2_sq",
             "xi1_sq", "xi2_sq", "det_a")
    return dict(zip(names, np.array(rows).T))


@pytest.fixture(scope="module")
def evaluator(open_config, default_moments):
    return CurveEvaluator(open_config, default_moments, 3.0)


def test_frozen_point_values(evaluator):
    """Regression anchor for the full pipeline at t = 1."""
    p = evaluator.point(1.0)
    assert p.sigma1_sq == pytest.approx(0.6202582982855105, rel=1e-8)
    assert p.sigma2_sq == pytest.approx(0.6521980022129531, rel=1e-8)
    assert p.xi1_sq == pytest.approx(0.24780639367836313, rel=1e-6)
    assert p.xi2_sq == pytest.approx(0.3014616273425586, rel=1e-6)
    assert p.u_sq == pytest.approx(2.2485140551149674, rel=1e-6)
    assert p.bound == pytest.approx(1.7681954563398083, rel=1e-6)
    assert p.det_a == pytest.approx(3.218483880727631, rel=1e-10)


def test_variance_decomposition(evaluator, default_moments):
    p = evaluator.point(0.7)
    assert p.var_x == pytest.approx(
        default_moments.var_xs0 + p.sigma1_sq + p.xi1_sq
    )
    assert p.var_p == pytest.approx(
        default_moments.var_ps0 + p.sigma2_sq + p.xi2_sq
    )
    assert p.u_sq == pytest.approx(p.var_x * p.var_p)


def test_closed_measurement_no_noise_terms(closed_config, default_moments):
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    p = ev.point(1.0)
    assert p.xi1_sq == 0.0
    assert p.xi2_sq == 0.0
    assert p.u_sq >= 1.0 - 1e-12


def test_closed_sigma_closed_form(closed_config, default_moments):
    """sigma_k^2 from the polynomial response matrices directly."""
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    t = 1.0
    p = ev.point(t)
    from pointersim.oracle import closed_form_eta0
    from pointersim.propagator import response_matrices

    a, b, _ = response_matrices(*closed_form_eta0(closed_config, t)[:2])
    s1, s2 = pointer_contributions(a, b, default_moments.cov_j)
    assert p.sigma1_sq == pytest.approx(s1, rel=1e-10)
    assert p.sigma2_sq == pytest.approx(s2, rel=1e-10)


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
@pytest.mark.parametrize(
    "couplings, rtol", [((2.0, 2.0, 1.0), 1e-12), ((1.3, 0.7, 2.0), 1e-9)],
    ids=["default", "generic"],
)
def test_closed_curve_is_exact_at_long_times(default_moments, mode, couplings, rtol):
    """An eta = 0 curve up to t = 1000 equals the exact polynomials of
    closed_form_eta0 pushed through the same inference, to 1e-12 relative.

    The default generator is nilpotent bit for bit.  The generic one has a
    rounded M^-1, so F^4 is rounding noise, not zero, and the entries that
    the inference cancels (K_31 = 0) come out near eps * t^2: 8e-11 relative
    in u_sq at t = 1000, against 2e-3 from a stacked expm."""
    from pointersim.oracle import closed_form_eta0

    kappa1, kappa2, mass_ratio = couplings
    cfg = MeasurementConfig(kappa1=kappa1, kappa2=kappa2, mass_ratio=mass_ratio, eta=0.0)
    times = np.array([100.0, 400.0, 700.0, 1000.0])
    curve = CurveEvaluator(cfg, default_moments, 1000.0, mode).curve(times)
    for i, t in enumerate(times.tolist()):
        a, b, det_a = response_matrices(*closed_form_eta0(cfg, t)[:2])
        s1, s2 = pointer_contributions(a, b, default_moments.cov_j)
        u_sq = (default_moments.var_xs0 + s1) * (default_moments.var_ps0 + s2)
        for name, want in (("u_sq", u_sq), ("sigma1_sq", s1), ("sigma2_sq", s2),
                           ("det_a", det_a)):
            assert curve.column(name)[i] == pytest.approx(want, rel=rtol), (name, t)


@settings(max_examples=50, deadline=None)
@given(
    s1=st.floats(0.01, 5),
    s2=st.floats(0.01, 5),
    x1=st.floats(0.0, 3),
    x2=st.floats(0.0, 3),
)
def test_expanded_uncertainty_identity(default_moments, s1, s2, x1, x2):
    """Five-term expansion is algebraically the product of the variances."""
    var_x, var_p = inferred_variances(default_moments, s1, s2, x1, x2)
    product = var_x * var_p
    expanded = expanded_uncertainty(default_moments, s1, s2, x1, x2)
    assert expanded == pytest.approx(product, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    s1=st.floats(0.05, 5),
    ratio=st.floats(1.0, 4.0),
    x1=st.floats(0.0, 3),
    x2=st.floats(0.0, 3),
)
def test_bound_below_uncertainty(default_moments, s1, ratio, x1, x2):
    """The bound holds when the pointer contributions respect the
    Heisenberg-limited product sigma_1*sigma_2 >= 1/2, as physical
    pointer states do."""
    s2 = ratio * 0.25 / s1
    var_x, var_p = inferred_variances(default_moments, s1, s2, x1, x2)
    u_sq = var_x * var_p
    b = lower_bound(default_moments, s1, s2, x1, x2)
    assert b >= 1.0
    assert u_sq >= b - 1e-9 * max(u_sq, 1.0)


def test_bound_saturates_at_matching(default_moments):
    """With sigma_k matching the initial spreads and no noise, U^2 = bound."""
    s1 = default_moments.var_xs0
    s2 = default_moments.var_ps0
    var_x, var_p = inferred_variances(default_moments, s1, s2, 0.0, 0.0)
    u_sq = var_x * var_p
    b = lower_bound(default_moments, s1, s2, 0.0, 0.0)
    assert u_sq == pytest.approx(b)
    d1, d2 = matching_distance(default_moments, s1, s2)
    assert d1 == pytest.approx(0.0, abs=1e-14)
    assert d2 == pytest.approx(0.0, abs=1e-14)


def test_wodkiewicz_branches():
    lo, hi = wodkiewicz_f(1.0)
    assert lo == pytest.approx(-3.0)
    assert hi == pytest.approx(1.0)
    lo4, hi4 = wodkiewicz_f(4.0)
    assert hi4 == pytest.approx(3.0)
    assert lo4 < lo


def test_curve_columns_and_parallel_determinism(
    open_config, default_moments
):
    times = np.linspace(0.1, 1.5, 8)
    serial = CurveEvaluator(open_config, default_moments, 1.5).curve(times)
    parallel = CurveEvaluator(open_config, default_moments, 1.5).curve(times)
    assert len(serial) == 8
    for name in ("t", "u_sq", "bound", "xi1_sq"):
        np.testing.assert_array_equal(
            serial.column(name), parallel.column(name)
        )


def test_with_inv_beta_shares_dynamics(evaluator):
    hot = evaluator.with_inv_beta(3.0)
    assert hot.table is evaluator.table
    p_cold = evaluator.point(1.0)
    p_hot = hot.point(1.0)
    # dynamics-only quantities unchanged, noise grows with temperature
    assert p_hot.det_a == p_cold.det_a
    assert p_hot.sigma1_sq == p_cold.sigma1_sq
    assert p_hot.xi1_sq > p_cold.xi1_sq
    assert p_hot.xi2_sq > p_cold.xi2_sq


def test_with_inv_beta_updates_config(evaluator):
    hot = evaluator.with_inv_beta(3.0)
    assert hot.cfg.inv_beta == hot.kernel.inv_beta == 3.0
    assert evaluator.cfg.inv_beta == evaluator.kernel.inv_beta == 1.0


def test_points_match_point_per_kernel(evaluator):
    """The batch over times and kernels equals one point() per evaluator and
    time, on both sides of t = 0.1."""
    evaluators = [evaluator.with_inv_beta(ib) for ib in (0.5, 1.0, 3.0)]
    times = [0.05, 0.8, 2.4]
    batch = evaluator.points(times, [ev.kernel for ev in evaluators])
    assert [list(curve) for curve in batch] == [[ev.point(t) for t in times] for ev in evaluators]


def test_det_a_rtol_rejects_in_both_guards(closed_config, default_moments, monkeypatch):
    """The checked inverse refuses a near-singular A at the fixed rtol, and
    CurveEvaluator goes through the same guard (rtol patched to 1)."""
    import pointersim.propagator

    # |det A| / ||A||^2 = 2^-43 / 4, below the fixed 1e-12
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-43]])
    with pytest.raises(NumericalError, match="too small for inference"):
        checked_inverse(a)
    monkeypatch.setattr(pointersim.propagator, "_DET_A_RTOL", 1.0)
    with pytest.raises(NumericalError, match="too small for inference"):
        CurveEvaluator(closed_config, default_moments, 3.0).point(1.0)


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
@pytest.mark.parametrize("eta", [0.0, 0.25], ids=["closed", "open"])
def test_curve_equals_per_point_evaluation(default_moments, mode, eta):
    """The array path changes no bit of any column."""
    cfg = MeasurementConfig(eta=eta)
    times = np.linspace(0.05, 3.0, 25)
    curve = CurveEvaluator(cfg, default_moments, 3.0, mode).curve(times)
    reference = _per_point_curve(cfg, default_moments, times, mode)
    assert len(curve) == times.size
    for name, column in reference.items():
        np.testing.assert_array_equal(curve.column(name), column, err_msg=name)


@pytest.mark.parametrize("inv_beta", [0.0, -1.0])
def test_with_inv_beta_refuses_a_nonpositive_energy(evaluator, inv_beta):
    with pytest.raises(ConfigError, match=f"^inv_beta must be > 0, got {inv_beta}$"):
        evaluator.with_inv_beta(inv_beta)


@pytest.mark.parametrize("eta", [0.0, 0.25], ids=["closed", "open"])
def test_empty_grid_gives_an_empty_curve(default_moments, eta):
    ev = CurveEvaluator(MeasurementConfig(eta=eta), default_moments, 3.0)
    assert len(ev.curve([])) == 0
    assert [len(c) for c in ev.points([], [ev.kernel])] == [0]


def test_point_is_a_one_time_curve(evaluator):
    times = np.array([0.3, 0.9, 2.4])
    curve = evaluator.curve(times)
    assert evaluator.point(0.9) == evaluator.curve([0.9])[0] == curve[1]
    assert list(curve) == [evaluator.point(t) for t in times.tolist()]
    assert all(type(v) is float for v in vars(curve[0]).values())


def test_singular_row_inside_a_grid_raises(closed_config, default_moments):
    """A = 0 at t = 0, so a grid that holds t = 0 cannot be inferred."""
    ev = CurveEvaluator(closed_config, default_moments, 3.0)
    with pytest.raises(NumericalError, match="too small for inference"):
        ev.curve(np.array([0.5, 0.0, 1.0]))
