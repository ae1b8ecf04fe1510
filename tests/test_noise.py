import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from pointersim.errors import SingularInference
from pointersim.kernels import BathKernel, noise_autocorrelation
from pointersim.model import MeasurementConfig
from pointersim.noise import (
    _GRADED_PANELS,
    _PANEL_NODES,
    PropagatorTable,
    _gl_nodes,
    _u_panels,
    lambda_covariance,
    lambda_rule,
    xi_matrix,
)
from pointersim.propagator import build_generator, propagate


def _pointer_block(table, tau):
    """G pointer block P e^{F tau} N of the table, shaped (..., 2, 2)."""
    tau = np.asarray(tau, dtype=float)
    block = table.pointer_exp(tau) @ table.gen.noise_map[:, 1:3]
    return block.reshape(tau.shape + (2, 2))


def _panel_loop_lambda(table, kernel, t, doubled=False, inner_nodes=48):
    """Reference Lambda(t): one panel at a time, nu and G per panel, and the
    inner integral H(u) by an ``inner_nodes``-point Gauss-Legendre rule;
    ``doubled`` as in :func:`lambda_rule`."""
    xg, wg = _gl_nodes(2 * _PANEL_NODES if doubled else _PANEL_NODES)
    xr, wr = _gl_nodes(inner_nodes)
    edges = _u_panels(t, _GRADED_PANELS + 4 if doubled else _GRADED_PANELS)
    cov = np.zeros((2, 2))
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0.0:
            continue
        u = lo + (hi - lo) * xg
        wu = (hi - lo) * wg
        nu_vals = noise_autocorrelation(u, kernel)
        span = t - u
        r = span[:, None] * xr[None, :]
        w_in = span[:, None] * wr[None, :]
        g1 = _pointer_block(table, r)
        g2 = _pointer_block(table, r + u[:, None])
        h = np.einsum("urak,urbk,ur->uab", g1, g2, w_in)
        sym = h + np.transpose(h, (0, 2, 1))
        cov += np.einsum("u,u,uab->ab", wu, nu_vals, sym)
    return 0.5 * (cov + cov.T)


class _SplineTable:
    """The former table: a cubic spline of G's pointer block through
    ``points_per_time`` propagations per unit time."""

    def __init__(self, gen, t_max, points_per_time=512):
        times = np.linspace(0.0, t_max, max(16, int(np.ceil(t_max * points_per_time))) + 1)
        block = [propagate(gen, float(t))[1][1:3, 1:3] for t in times]
        self._spline = CubicSpline(times, block, axis=0)
        self.gen = gen

    def pointer_block(self, tau):
        return self._spline(np.asarray(tau, dtype=float))


def _spline_lambda(table, kernel, t, inner_nodes=48):
    """The former Lambda(t): the panel loop of :func:`_panel_loop_lambda`
    with all panels in one pass, on a :class:`_SplineTable`."""
    xg, wg = _gl_nodes(_PANEL_NODES)
    xr, wr = _gl_nodes(inner_nodes)
    edges = _u_panels(t, _GRADED_PANELS)
    lo, width = edges[:-1], np.diff(edges)
    u = (lo[:, None] + width[:, None] * xg).ravel()
    wu = (width[:, None] * wg).ravel()
    span = t - u
    r = span[:, None] * xr[None, :]
    g1 = table.pointer_block(r)
    g2 = table.pointer_block(r + u[:, None])
    h = np.einsum("urak,urbk,ur->uab", g1, g2, span[:, None] * wr[None, :])
    cov = np.einsum("u,u,uab->ab", wu, noise_autocorrelation(u, kernel), h + h.transpose(0, 2, 1))
    return 0.5 * (cov + cov.T)


@pytest.fixture(scope="module")
def table(open_config):
    gen = build_generator(open_config, "renormalized")
    return PropagatorTable(gen, 2.5)


@pytest.fixture(scope="module")
def bath_kernel(open_config):
    return BathKernel(
        eta=open_config.eta, omega_c=open_config.omega_c, inv_beta=open_config.inv_beta
    )


@pytest.mark.parametrize("omega_c", [10.0, 20.0, 40.0, 200.0])
@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_pointer_block_matches_propagate(mode, omega_c):
    """The table's G equals a direct propagation, on and between nodes."""
    gen = build_generator(MeasurementConfig(omega_c=omega_c), mode)
    table = PropagatorTable(gen, 3.0)
    rng = np.random.default_rng(3)
    taus = np.concatenate(
        [[0.0, 0.3 * table.step, table.step, 3.0], rng.uniform(0.0, 3.0, 20)]
    )
    blocks = _pointer_block(table, taus)
    for tau, block in zip(taus, blocks):
        ref = propagate(gen, float(tau))[1][1:3, 1:3]
        np.testing.assert_allclose(block, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _gramian_rows_by_quadrature(gen, s):
    """P W(s) = int_0^s P e^{Fr} N N^T e^{F^T r} dr by composite
    Gauss-Legendre quadrature (24 panels of 20 nodes) with a matrix
    exponential at every node."""
    x, w = _gl_nodes(20)
    edges = np.linspace(0.0, s, 25)
    n_mat = gen.noise_map[:, 1:3]
    out = np.zeros((2, gen.generator.shape[0]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        for xi, wi in zip(x, w):
            e = expm(gen.generator * (lo + (hi - lo) * xi))
            out += (hi - lo) * wi * e[1:3] @ n_mat @ n_mat.T @ e.T
    return out


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_pointer_gramian_matches_quadrature(open_config, mode):
    gen = build_generator(open_config, mode)
    table = PropagatorTable(gen, 3.0)
    times = np.array([0.4 * table.step, 0.37, 1.0, 3.0])
    rows = table.pointer_gramian(times)
    for s, row in zip(times, rows):
        ref = _gramian_rows_by_quadrature(gen, float(s))
        np.testing.assert_allclose(row, ref, rtol=1e-11, atol=1e-11 * np.abs(ref).max())


def test_table_rejects_times_outside_its_range(table):
    for bad in (-1e-3, 2.6):
        with pytest.raises(ValueError):
            table.pointer_exp(bad)
        with pytest.raises(ValueError):
            table.pointer_gramian(bad)


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_matches_spline_table(open_config, bath_kernel, time_grid_200, mode):
    """The exact table agrees with the former spline table and inner rule
    to 1e-7 of the largest entry on the 200-point grid."""
    gen = build_generator(open_config, mode)
    table = PropagatorTable(gen, 3.0)
    spline = _SplineTable(gen, 3.0)
    for t in time_grid_200:
        ref = _spline_lambda(spline, bath_kernel, float(t))
        new = lambda_covariance(table, bath_kernel, float(t))
        assert np.abs(new - ref).max() <= 1e-7 * np.abs(ref).max()


def test_lambda_zero_cases(table, bath_kernel):
    assert np.all(lambda_covariance(table, bath_kernel, 0.0) == 0.0)
    quiet = BathKernel(eta=0.0, omega_c=20.0, inv_beta=1.0)
    assert np.all(lambda_covariance(table, quiet, 1.0) == 0.0)


def test_lambda_beyond_table_rejected(table, bath_kernel):
    with pytest.raises(ValueError):
        lambda_covariance(table, bath_kernel, 3.0)


def test_lambda_frozen_value(table, bath_kernel):
    ref = np.array(
        [[0.77385829, 0.20191891], [0.20191891, 0.96109225]]
    )
    np.testing.assert_allclose(
        lambda_covariance(table, bath_kernel, 1.0), ref, rtol=1e-6
    )


def test_lambda_symmetric_and_psd(table, bath_kernel):
    for t in (0.1, 0.5, 1.0, 2.0):
        cov = lambda_covariance(table, bath_kernel, t)
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.trace(cov)


def test_lambda_doubling_stability(table, bath_kernel):
    """Doubling the quadrature resolution barely moves the result."""
    for t in (0.3, 1.0, 2.0):
        base = lambda_covariance(table, bath_kernel, t)
        fine = lambda_rule(table, t, doubled=True).covariance(bath_kernel)
        rel = np.abs(fine - base).max() / np.abs(base).max()
        assert rel < 1e-4


@pytest.mark.parametrize("doubled", [False, True], ids=["default", "doubled"])
@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_matches_panel_loop(open_config, bath_kernel, time_grid_200, mode, doubled):
    """The vectorised rule reproduces the panel loop on the 200-point grid."""
    gen = build_generator(open_config, mode)
    table = PropagatorTable(gen, 3.0)
    for t in time_grid_200:
        ref = _panel_loop_lambda(table, bath_kernel, float(t), doubled, 96 if doubled else 48)
        new = lambda_rule(table, float(t), doubled).covariance(bath_kernel)
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_lambda_rule_is_beta_free(table):
    """One rule contracted with several kernels equals Lambda per kernel."""
    rule = lambda_rule(table, 1.3)
    for inv_beta in (0.5, 1.0, 4.0):
        kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        np.testing.assert_array_equal(
            rule.covariance(kernel), lambda_covariance(table, kernel, 1.3)
        )


def test_lambda_grows_with_temperature(open_config, table):
    hot = BathKernel(eta=0.25, omega_c=20.0, inv_beta=3.0)
    cold = BathKernel(eta=0.25, omega_c=20.0, inv_beta=0.5)
    c_hot = lambda_covariance(table, hot, 1.0)
    c_cold = lambda_covariance(table, cold, 1.0)
    assert np.trace(c_hot) > np.trace(c_cold)


def test_xi_matrix_identity_transform():
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(xi_matrix(np.eye(2), lam), lam)


def test_xi_matrix_singular_a_rejected():
    with pytest.raises(SingularInference):
        xi_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


@settings(max_examples=40, deadline=None)
@given(
    a11=st.floats(-3, 3),
    a12=st.floats(-3, 3),
    a21=st.floats(-3, 3),
    a22=st.floats(-3, 3),
    l1=st.floats(0.01, 5),
    l2=st.floats(0.01, 5),
    c=st.floats(-0.9, 0.9),
)
def test_xi_matrix_congruence_preserves_psd(a11, a12, a21, a22, l1, l2, c):
    a = np.array([[a11, a12], [a21, a22]])
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-3 * max(np.linalg.norm(a) ** 2, 1e-6):
        return  # near-singular draws are not the property under test
    cov = np.array([[l1, c * np.sqrt(l1 * l2)], [c * np.sqrt(l1 * l2), l2]])
    xi = xi_matrix(a, cov)
    np.testing.assert_allclose(xi, xi.T, atol=1e-10)
    assert np.linalg.eigvalsh(xi)[0] >= -1e-9 * max(np.trace(xi), 1.0)
    # explicit congruence with the inverse
    np.testing.assert_allclose(
        xi, np.linalg.inv(a) @ cov @ np.linalg.inv(a).T, rtol=1e-8, atol=1e-10
    )
