import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

import pointersim.noise
from pointersim.cli import EXIT_NUMERICAL, main
from pointersim.errors import ConfigError, NumericalError
from pointersim.kernels import BathKernel, noise_autocorrelation
from pointersim.model import MeasurementConfig
from pointersim.noise import (
    _GRADED_PANELS,
    _GRADED_RATIO,
    _GRADED_START,
    _PANEL_NODES,
    _PANEL_WIDTH,
    PropagatorTable,
    _forward,
    _gl_nodes,
    _integration_matrix,
    _u_panels,
    lambda_covariance,
    xi_matrix,
)
from pointersim.propagator import build_generator, checked_inverse
from pointersim.uncertainty import CurveEvaluator


def _pointer_block(table, tau):
    """G pointer block P e^{F tau} N of the table, shaped (..., 2, 2)."""
    tau = np.asarray(tau, dtype=float)
    block = table.exp(tau, slice(1, 3)) @ table.gen.noise_map[:, 1:3]
    return block.reshape(tau.shape + (2, 2))


def _table_block(table):
    """G pointer block P e^{Fs} N of the table as a function of the times s,
    shaped (..., 2, 2): the table's forward Taylor series from the node
    below, with N folded into its coefficients (a quarter of the work of
    ``exp(s, slice(1, 3)) @ N``) and summed by one matrix product for all times."""
    terms = len(table._c_exp)
    coeffs = (table._c_exp @ table.gen.noise_map[:, 1:3]).reshape(terms, -1)

    def block(s):
        j, d = table._split(s)
        powers = np.empty((terms, d.size))  # d^k
        powers[0] = 1.0
        for k in range(1, terms):
            np.multiply(powers[k - 1], d, out=powers[k])
        step = (powers.T @ coeffs).reshape(d.size, -1, 2)
        return (table._exp[j, 1:3] @ step).reshape(np.shape(s) + (2, 2))

    return block


def _panel_loop_lambda(block, kernel, t, doubled=False, inner_nodes=48):
    """Reference Lambda(t) in the lag form on the panels of :func:`_u_panels`,
    with G given by ``block``: nu and G on all panels of t at once, and the
    inner integral H(u) = int_0^{t-u} G(r) G(r+u)^T dr by an
    ``inner_nodes``-point Gauss-Legendre rule; ``doubled`` as in
    :func:`_doubled_lambda`."""
    xg, wg = _gl_nodes(2 * _PANEL_NODES if doubled else _PANEL_NODES)
    xr, wr = _gl_nodes(inner_nodes)
    edges = _u_panels(t, _GRADED_PANELS + 4 if doubled else _GRADED_PANELS)
    lo, width = edges[:-1], np.diff(edges)
    keep = width > 0.0
    u = (lo[keep, None] + width[keep, None] * xg).ravel()
    wu = (width[keep, None] * wg).ravel()
    span = t - u
    r = span[:, None] * xr
    g1 = block(r) * (span[:, None] * wr)[..., None, None]
    g2 = block(r + u[:, None])
    # H(u)_ab = sum over r and k of g1[u, r, a, k] g2[u, r, b, k], one matmul per u
    h = g1.transpose(0, 2, 1, 3).reshape(u.size, 2, -1) @ g2.transpose(0, 1, 3, 2).reshape(
        u.size, -1, 2
    )
    cov = np.einsum("u,u,uab->ab", wu, noise_autocorrelation(u, kernel), h + h.transpose(0, 2, 1))
    return 0.5 * (cov + cov.T)


def _pass_lambda(table, kernel, edges, n):
    """Lambda at the last edge of one fresh forward pass over ``edges``."""
    cov = _forward(table, [kernel], edges, n)[0][0, -1, 1:3, 1:3]
    return 0.5 * (cov + cov.T)


def _doubled_lambda(table, kernel, t):
    """The convergence reference: Lambda(t) with twice the nodes per panel
    and four more graded panels, all off the mesh."""
    return _pass_lambda(table, kernel, _u_panels(t, _GRADED_PANELS + 4), 2 * _PANEL_NODES)


def _spread_u_panels(t, graded_panels):
    """The former outer layout: the graded panels below u0 of
    :func:`_u_panels`, and regular panels spread evenly over [u0, t]."""
    u0 = min(_GRADED_START, 0.5 * t)
    edges = [t]
    n_reg = max(1, int(np.ceil((t - u0) / _PANEL_WIDTH)))
    for i in range(1, n_reg):
        edges.append(t - i * (t - u0) / n_reg)
    edges.append(u0)
    lo = u0
    for _ in range(graded_panels):
        lo *= _GRADED_RATIO
        edges.append(lo)
    edges.append(0.0)
    return np.array(edges[::-1])


def _spread_lambda(table, kernel, t):
    """Lambda(t) on the former layout :func:`_spread_u_panels`, with nu
    evaluated afresh on every node."""
    return _pass_lambda(table, kernel, _spread_u_panels(t, _GRADED_PANELS), _PANEL_NODES)


class _SplineTable:
    """The former table: a cubic spline of G's pointer block through
    ``points_per_time`` matrix exponentials per unit time."""

    def __init__(self, gen, t_max, points_per_time=512):
        times = np.linspace(0.0, t_max, max(16, int(np.ceil(t_max * points_per_time))) + 1)
        m_inv = gen.coupling.mass_inverse
        block = [(expm(gen.generator * t)[0:3, 3:6] @ m_inv)[1:3, 1:3] for t in times]
        self._spline = CubicSpline(times, block, axis=0)
        self.gen = gen

    def pointer_block(self, tau):
        return self._spline(np.asarray(tau, dtype=float))


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
    """The table's G equals G from a direct ``expm``, on and between nodes."""
    gen = build_generator(MeasurementConfig(omega_c=omega_c), mode)
    table = PropagatorTable(gen, 3.0)
    rng = np.random.default_rng(3)
    taus = np.concatenate(
        [[0.0, 0.3 * table.step, table.step, 3.0], rng.uniform(0.0, 3.0, 20)]
    )
    blocks = _pointer_block(table, taus)
    m_inv = gen.coupling.mass_inverse
    for tau, block in zip(taus, blocks):
        ref = (expm(gen.generator * tau)[0:3, 3:6] @ m_inv)[1:3, 1:3]
        np.testing.assert_allclose(block, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_table_rejects_times_outside_its_range(table):
    for bad in (-1e-3, 2.6):
        with pytest.raises(ValueError):
            table.exp(bad, slice(1, 3))


@pytest.mark.parametrize("n", [10, 20])
def test_integration_matrix_is_exact_on_polynomials(n):
    """S integrates every polynomial of degree < n exactly from 0 to each
    node."""
    x = _gl_nodes(n)[0]
    s = _integration_matrix(n)
    for degree in range(n):
        np.testing.assert_allclose(
            s @ x**degree, x ** (degree + 1) / (degree + 1), rtol=0.0, atol=1e-14
        )


def test_forward_gives_a_kernel_the_same_bits_alone_as_in_a_batch(table):
    kernels = [BathKernel(eta=0.25, omega_c=20.0, inv_beta=ib) for ib in (0.5, 1.0, 4.0)]
    batch = _forward(table, kernels, table.mesh, _PANEL_NODES)
    for i, kernel in enumerate(kernels):
        for together, alone in zip(batch, _forward(table, [kernel], table.mesh, _PANEL_NODES)):
            np.testing.assert_array_equal(together[i], alone[0])


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_matches_spline_table(open_config, bath_kernel, time_grid_200, mode):
    """The exact table agrees with the former spline table and inner rule
    to 1e-7 of the largest entry on the 200-point grid."""
    gen = build_generator(open_config, mode)
    table = PropagatorTable(gen, 3.0)
    spline = _SplineTable(gen, 3.0)
    for t in time_grid_200:
        ref = _panel_loop_lambda(spline.pointer_block, bath_kernel, float(t))
        new = lambda_covariance(table, [bath_kernel], float(t))[0]
        assert np.abs(new - ref).max() <= 1e-7 * np.abs(ref).max()


def test_lambda_zero_cases(table, bath_kernel):
    assert np.all(lambda_covariance(table, [bath_kernel], 0.0)[0] == 0.0)
    quiet = BathKernel(eta=0.0, omega_c=20.0, inv_beta=1.0)
    assert np.all(lambda_covariance(table, [quiet], 1.0)[0] == 0.0)


def test_lambda_of_a_table_without_a_mesh_is_zero(closed_config):
    """The closed measurement (eta = 0) has no noise: its table has no mesh,
    and every kernel of a stack gets Lambda = 0, on and off the mesh range."""
    table = PropagatorTable(build_generator(closed_config), 2.5)
    assert table.mesh.size == 0
    kernels = [BathKernel(0.0, 20.0, 1.0), BathKernel(0.0, 20.0, 2.0)]
    for t in (0.05, 1.0, 2.5):
        lam = lambda_covariance(table, kernels, t)
        assert lam.shape == (2, 2, 2) and not lam.any()


def test_lambda_beyond_table_rejected(table, bath_kernel):
    with pytest.raises(ValueError):
        lambda_covariance(table, [bath_kernel], 3.0)


@pytest.mark.parametrize("bad", [np.nan, -1e-3, -np.inf, np.inf])
def test_lambda_rejects_a_time_that_is_negative_or_not_finite(table, bath_kernel, bad):
    """One ValueError that names the first such time, from a scalar and from
    an array."""
    for t in (bad, np.array([0.5, bad, -2.0])):
        with pytest.raises(ValueError, match=f"^t = {bad} is not a finite time >= 0$"):
            lambda_covariance(table, [bath_kernel], t)


def test_lambda_frozen_value(table, bath_kernel):
    ref = np.array(
        [[0.77385829, 0.20191891], [0.20191891, 0.96109225]]
    )
    np.testing.assert_allclose(
        lambda_covariance(table, [bath_kernel], 1.0)[0], ref, rtol=1e-6
    )


def test_lambda_symmetric_and_psd(table, bath_kernel):
    for t in (0.1, 0.5, 1.0, 2.0):
        cov = lambda_covariance(table, [bath_kernel], t)[0]
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.trace(cov)


def test_lambda_doubling_stability(table, bath_kernel):
    """Doubling the quadrature resolution barely moves the result."""
    for t in (0.3, 1.0, 2.0):
        base = lambda_covariance(table, [bath_kernel], t)[0]
        fine = _doubled_lambda(table, bath_kernel, t)
        rel = np.abs(fine - base).max() / np.abs(base).max()
        assert rel < 1e-4


@pytest.mark.parametrize("doubled", [False, True], ids=["default", "doubled"])
@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_matches_panel_loop(open_config, bath_kernel, time_grid_200, mode, doubled):
    """The forward pass reproduces the lag-form panel loop on the 200-point
    grid."""
    gen = build_generator(open_config, mode)
    table = PropagatorTable(gen, 3.0)
    block = _table_block(table)
    for t in time_grid_200:
        ref = _panel_loop_lambda(block, bath_kernel, float(t), doubled, 96 if doubled else 48)
        if doubled:
            new = _doubled_lambda(table, bath_kernel, float(t))
        else:
            new = lambda_covariance(table, [bath_kernel], float(t))[0]
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("omega_c, inv_beta", [(20.0, 1.0), (40.0, 0.5), (10.0, 5.0)])
@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_matches_spread_layout(time_grid_200, mode, omega_c, inv_beta):
    """The aligned outer mesh agrees with the former evenly spread panels to
    1e-10 of the largest entry on the 200-point grid."""
    cfg = MeasurementConfig(omega_c=omega_c, inv_beta=inv_beta)
    table = PropagatorTable(build_generator(cfg, mode), 3.0)
    kernel = BathKernel(eta=cfg.eta, omega_c=omega_c, inv_beta=inv_beta)
    for t in time_grid_200:
        ref = _spread_lambda(table, kernel, float(t))
        new = lambda_covariance(table, [kernel], float(t))[0]
        assert np.abs(new - ref).max() <= 1e-10 * np.abs(ref).max()


def _edge_case_times(mesh, t_max):
    """Times below and above 0.1 and both float neighbours of 0.1, every
    mesh edge and its float neighbours (but those of 0, where nu diverges),
    t_max, and regular grids that fill several passes."""
    edges = mesh[1:]
    return np.concatenate((
        [0.0, np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0), t_max],
        mesh, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        np.geomspace(1e-3, 0.099, 13), np.linspace(0.1, t_max, 200),
    ))


@pytest.mark.parametrize("pass_nodes", [None, 200], ids=["cap", "small-cap"])
@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_lambda_of_a_time_array_equals_the_per_time_calls(monkeypatch, open_config, mode,
                                                          pass_nodes):
    """The stacked passes give every time and kernel the bits of its own
    call, across pass boundaries; a small cap also splits the kernels."""
    if pass_nodes is not None:
        monkeypatch.setattr(pointersim.noise, "_PASS_NODES", pass_nodes)
    kernels = [BathKernel(eta=0.25, omega_c=20.0, inv_beta=ib) for ib in (0.5, 1.0, 4.0)]
    table = PropagatorTable(build_generator(open_config, mode), 2.5)
    times = _edge_case_times(table.mesh, table.t_max)
    cap = pointersim.noise._PASS_NODES
    on_mesh = times >= 2.0 * _GRADED_START
    assert on_mesh.sum() * len(kernels) * _PANEL_NODES > cap
    assert (~on_mesh).sum() * len(kernels) * (2 + _GRADED_PANELS) * _PANEL_NODES > cap
    stacked = lambda_covariance(table, kernels, times)
    assert stacked.shape == (len(kernels), times.size, 2, 2)
    fresh = PropagatorTable(build_generator(open_config, mode), 2.5)
    per_time = np.stack([lambda_covariance(fresh, kernels, t) for t in times.tolist()], axis=1)
    np.testing.assert_array_equal(stacked, per_time)


def test_lambda_of_a_tiny_time_with_merged_edges_raises_as_alone(table, bath_kernel):
    """Where the graded edges of a tiny t round together, a node rounds to 0
    and nu diverges there: the array form raises as the scalar one does."""
    tiny = 1e-315
    assert np.unique(_u_panels(tiny, _GRADED_PANELS)).size < _GRADED_PANELS + 3
    for t in (tiny, np.array([0.05, tiny, 1.0])):
        with pytest.raises(NumericalError, match="diverges logarithmically at t = 0"):
            lambda_covariance(table, [bath_kernel], t)


def test_no_stacked_pass_takes_more_nodes_than_the_cap(monkeypatch, open_config):
    """Every pass, the mesh pass of ten kernels included, asks nu for at
    most _PASS_NODES kernel-nodes, and together they ask for every node."""
    passes = []
    forward, nu = pointersim.noise._forward, pointersim.noise.noise_autocorrelation

    def counted_forward(*args, **kwargs):
        passes.append(0)
        return forward(*args, **kwargs)

    def counted_nu(t, kernel):
        passes[-1] += np.size(t)
        return nu(t, kernel)

    monkeypatch.setattr(pointersim.noise, "_forward", counted_forward)
    monkeypatch.setattr(pointersim.noise, "noise_autocorrelation", counted_nu)
    table = PropagatorTable(build_generator(open_config), 3.0)
    kernels = [BathKernel(0.25, 20.0, 0.5 + 0.25 * i) for i in range(10)]
    times = np.geomspace(0.02, 3.0, 60)
    lambda_covariance(table, kernels, times)
    panels = [1 if t >= 2.0 * _GRADED_START else _GRADED_PANELS + 2 for t in times]
    assert max(passes) <= pointersim.noise._PASS_NODES and len(passes) > 3
    assert sum(passes) == len(kernels) * _PANEL_NODES * (table.mesh.size - 1 + sum(panels))


def test_u_panels_align_on_the_mesh(table):
    """From t = 2*_GRADED_START on, every panel but the last is a mesh panel,
    and the last one ends at t; below, the layout is the former one."""
    mesh = _u_panels(table.t_max, _GRADED_PANELS)[:-1]
    aligned = _GRADED_START + 3 * _PANEL_WIDTH
    for t in (0.1, 0.13, 0.15, 0.25, aligned, 1.0, 1.05, 2.4999):
        edges = _u_panels(t, _GRADED_PANELS)
        np.testing.assert_array_equal(edges[:-1], mesh[: edges.size - 1])
        # an aligned t ends a full panel, one rounding of its edges wide
        assert edges[-1] == t and 0.0 < t - edges[-2] <= _PANEL_WIDTH * (1.0 + 1e-15)
    for t in (0.0, 0.02, 0.07, 0.0999):
        np.testing.assert_array_equal(
            _u_panels(t, _GRADED_PANELS), _spread_u_panels(t, _GRADED_PANELS)
        )


def test_mesh_nu_is_a_fresh_evaluation(table, bath_kernel):
    """Lambda from the cached mesh edge equals one fresh pass over all panels
    of t; nu of a whole-mesh batch may differ from it in the last bits."""
    cached = lambda_covariance(table, [bath_kernel], 1.7)[0]
    fresh = _pass_lambda(table, bath_kernel, _u_panels(1.7, _GRADED_PANELS), _PANEL_NODES)
    assert np.abs(cached - fresh).max() <= 1e-14 * np.abs(fresh).max()


def _count_nu_points(monkeypatch):
    """Point counter around the nu of :mod:`pointersim.noise`."""
    points = [0]
    nu = pointersim.noise.noise_autocorrelation

    def counted(t, kernel, *args, **kwargs):
        points[0] += np.size(t)
        return nu(t, kernel, *args, **kwargs)

    monkeypatch.setattr(pointersim.noise, "noise_autocorrelation", counted)
    return points


def test_lambda_on_the_mesh_evaluates_one_panel_of_nu(monkeypatch, open_config, bath_kernel):
    table = PropagatorTable(build_generator(open_config, "renormalized"), 2.5)
    points = _count_nu_points(monkeypatch)
    lambda_covariance(table, [bath_kernel], 1.3)
    assert points[0] == (table.mesh.size - 1) * _PANEL_NODES + _PANEL_NODES
    for t in (0.1, 0.64, 2.5):
        points[0] = 0
        lambda_covariance(table, [bath_kernel], t)
        assert points[0] == _PANEL_NODES


def test_default_sweep_evaluates_a_quarter_of_the_nu_points(monkeypatch, tmp_path):
    """The default sweep evaluated nu on 197,200 points before the outer
    mesh; it may evaluate at most a quarter of that."""
    from pointersim.cli import main

    points = _count_nu_points(monkeypatch)
    assert main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert points[0] <= 197_200 // 4


def _eleven_kernels(cfg):
    return [BathKernel(cfg.eta, cfg.omega_c, 0.5 + 0.25 * i) for i in range(11)]


def _bound_to_ten_kernels(monkeypatch, table):
    edge_floats = table.gen.generator.shape[0] ** 2 + 2 * table.gen.generator.shape[0]
    monkeypatch.setattr(pointersim.noise, "_MAX_MESH_NU", 10 * table.mesh.size * edge_floats)


def test_mesh_nu_cache_is_bounded(monkeypatch, open_config):
    """The table refuses a kernel that would take its mesh cache past the
    bound, before any pass over the mesh."""
    table = PropagatorTable(build_generator(open_config, "renormalized"), 2.5)
    assert 1000 * table.mesh.size * 80 <= pointersim.noise._MAX_MESH_NU
    _bound_to_ten_kernels(monkeypatch, table)
    kernels = _eleven_kernels(open_config)
    table.mesh_state(kernels[:10], 3)
    with pytest.raises(ConfigError, match="sweep.count or t_max"):
        table.mesh_state(kernels, 3)
    assert len(table._cache) == 10


def test_mesh_nu_cache_bound_holds_for_library_callers(monkeypatch, open_config, default_moments):
    ev = CurveEvaluator(open_config, default_moments, 2.5)
    _bound_to_ten_kernels(monkeypatch, ev.table)
    with pytest.raises(ConfigError, match="sweep.count or t_max"):
        ev.points(1.0, _eleven_kernels(open_config))
    assert not ev.table._cache


def test_psd_guard_refuses_a_negative_covariance(monkeypatch, tmp_path, capsys, open_config):
    """A noise autocorrelation of the wrong sign gives a negative definite
    Lambda, which the PSD guard refuses: NumericalError, and exit 3 from
    the CLI."""
    nu = pointersim.noise.noise_autocorrelation
    monkeypatch.setattr(
        pointersim.noise, "noise_autocorrelation", lambda t, kernel: -nu(t, kernel)
    )
    table = PropagatorTable(build_generator(open_config), 2.5)  # its mesh cache is spoilt
    kernel = BathKernel(eta=0.25, omega_c=20.0, inv_beta=2.0)
    for t in (0.05, 1.3):
        with pytest.raises(NumericalError, match="below PSD tolerance"):
            lambda_covariance(table, [kernel], t)
    assert main(["uncertainty", "--out", str(tmp_path / "out.csv")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error: noise covariance eigenvalue ")
    assert not (tmp_path / "out.csv").exists()


def test_lambda_grows_with_temperature(open_config, table):
    hot = BathKernel(eta=0.25, omega_c=20.0, inv_beta=3.0)
    cold = BathKernel(eta=0.25, omega_c=20.0, inv_beta=0.5)
    c_hot = lambda_covariance(table, [hot], 1.0)[0]
    c_cold = lambda_covariance(table, [cold], 1.0)[0]
    assert np.trace(c_hot) > np.trace(c_cold)


def test_xi_matrix_identity_transform():
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(xi_matrix(checked_inverse(np.eye(2)), lam), lam)


def test_xi_matrix_singular_a_rejected():
    """Xi^2 takes A^-1, so a singular A is refused before the congruence."""
    with pytest.raises(NumericalError, match="too small for inference"):
        xi_matrix(checked_inverse(np.array([[1.0, 1.0], [1.0, 1.0]])), np.eye(2))


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
    xi = xi_matrix(checked_inverse(a), cov)
    np.testing.assert_allclose(xi, xi.T, atol=1e-10)
    assert np.linalg.eigvalsh(xi)[0] >= -1e-9 * max(np.trace(xi), 1.0)
    # explicit congruence with the inverse
    np.testing.assert_allclose(
        xi, np.linalg.inv(a) @ cov @ np.linalg.inv(a).T, rtol=1e-8, atol=1e-10
    )
