"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line with the measured figures (visible with ``pytest -s`` or
on failure).  Tolerances here are contractual; do not loosen them to make
a regression pass.
"""

import json
import time

import numpy as np
import pytest

from pointersim import oracle
from pointersim.cli import main
from pointersim.kernels import (
    BathKernel,
    dissipation_from_spectral_density,
    dissipation_kernel_scalar,
    noise_autocorrelation,
    nu_quadrature,
)
from pointersim.model import MeasurementConfig, gaussian_state_moments
from pointersim.noise import (
    _PANEL_NODES,
    PropagatorTable,
    _forward,
    _u_panels,
    lambda_covariance,
)
from pointersim.optimize import thermal_sweep
from pointersim.propagator import build_generator, propagate, response_matrices
from pointersim.uncertainty import CurveEvaluator


MOMENTS = gaussian_state_moments()


@pytest.fixture(scope="module")
def reference_curves():
    """Uncertainty curves for the reference configuration, shared by the
    inequality and shape criteria."""
    times = np.linspace(0.02, 3.0, 200)
    curves = {}
    for inv_beta in (1.0, 2.0):
        cfg = MeasurementConfig(inv_beta=inv_beta)
        curves[inv_beta] = CurveEvaluator(cfg, MOMENTS, 3.0).curve(times)
    return times, curves


def test_criterion_1_closed_limit_exactness():
    start = time.perf_counter()
    cfg = MeasurementConfig(eta=0.0)
    gen = build_generator(cfg)
    ev = CurveEvaluator(cfg, MOMENTS, 3.0)
    worst_prop = 0.0
    worst_u = np.inf
    for t in np.linspace(0.0, 3.0, 61):
        k, g, _ = propagate(gen, float(t))
        a, _, det_a = response_matrices(k, g)
        worst_prop = max(
            worst_prop,
            abs(a[0, 0] - 2 * t),
            abs(a[0, 1] - t**2),
            abs(a[1, 0]),
            abs(a[1, 1] - 2 * t),
            abs(det_a - 4 * t**2),
        )
        if t > 0:
            worst_u = min(worst_u, ev.point(float(t)).u_sq)
    elapsed = time.perf_counter() - start
    assert worst_prop < 1e-10
    assert worst_u >= 1.0 - 1e-8
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1 (closed-limit exactness): propagator error "
        f"{worst_prop:.3e} < 1e-10, min U^2 {worst_u:.6f} >= 1, "
        f"{elapsed:.2f} s"
    )


def test_criterion_2_inequality_chain(reference_curves):
    start = time.perf_counter()
    _, curves = reference_curves
    worst_gap = np.inf
    worst_bound = np.inf
    for curve in curves.values():
        for p in curve:
            worst_gap = min(worst_gap, p.u_sq - p.bound)
            worst_bound = min(worst_bound, p.bound)
    elapsed = time.perf_counter() - start
    assert worst_gap >= -1e-8
    assert worst_bound >= 1.0 - 1e-8
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 2 (inequality chain): min(U^2 - bound) "
        f"{worst_gap:.3e}, min bound {worst_bound:.6f}, {elapsed:.1f} s"
    )


def _interior_minima(values: np.ndarray) -> list[int]:
    idx = np.arange(1, values.size - 1)
    return list(
        idx[(values[idx] < values[idx - 1]) & (values[idx] <= values[idx + 1])]
    )


def test_criterion_3_figure_shape(reference_curves):
    times, curves = reference_curves
    u1 = curves[1.0].column("u_sq")
    u2 = curves[2.0].column("u_sq")
    min1, min2 = _interior_minima(u1), _interior_minima(u2)
    assert len(min1) == 1 and len(min2) == 1
    t_opt1, t_opt2 = times[min1[0]], times[min2[0]]
    assert t_opt2 < t_opt1

    closed = CurveEvaluator(MeasurementConfig(eta=0.0), MOMENTS, 3.0).curve(times[1:])
    u_closed_min = closed.column("u_sq").min()
    assert u1.min() > u_closed_min

    gap = u1 - curves[1.0].column("bound")
    t_gap = times[int(gap.argmin())]
    assert 0.5 <= t_gap <= 1.5
    print(
        f"\nPASS criterion 3 (figure shape): single minima, "
        f"t_opt(2)={t_opt2:.3f} < t_opt(1)={t_opt1:.3f}, open min "
        f"{u1.min():.4f} > closed min {u_closed_min:.4f}, gap min at "
        f"t={t_gap:.3f} in [0.5, 1.5]"
    )


def test_criterion_4_sweep_shape():
    inv_betas = np.linspace(0.5, 5.0, 10)
    result = thermal_sweep(
        MeasurementConfig(), MOMENTS, inv_betas
    )
    assert result.flags == ()
    assert np.all(np.diff(result.t_opt) < 0)
    assert np.all(np.diff(result.u_sq_min) > 0)
    upper = inv_betas >= inv_betas[inv_betas.size // 2]
    x, y = inv_betas[upper], result.u_sq_min[upper]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r_sq = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert r_sq >= 0.98
    print(
        f"\nPASS criterion 4 (sweep shape): t_opt strictly decreasing "
        f"({result.t_opt[0]:.4f} -> {result.t_opt[-1]:.4f}), U^2_min "
        f"strictly increasing ({result.u_sq_min[0]:.4f} -> "
        f"{result.u_sq_min[-1]:.4f}), upper-half R^2 = {r_sq:.7f}"
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    cfg = MeasurementConfig()
    times = np.arange(1, 20) * 0.1  # 0.1 .. 1.9, plus 2.0 below
    times = np.append(times, 2.0)
    cont = oracle.continuum_pointer_covariance(cfg, MOMENTS, times, "raw")
    errs = {}
    for n in (100, 400):
        bath = oracle.discretize_bath(cfg, n_modes=n)
        disc = oracle.discrete_pointer_covariance(cfg, MOMENTS, bath, times)
        rel = np.linalg.norm(disc - cont, axis=(1, 2)) / np.linalg.norm(
            cont, axis=(1, 2)
        )
        errs[n] = float(rel.max())
    elapsed = time.perf_counter() - start
    assert errs[400] < 0.02
    assert errs[400] < errs[100]
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 5 (oracle equivalence): max relative deviation "
        f"N=100: {errs[100]:.3e}, N=400: {errs[400]:.3e} < 2%, decreasing, "
        f"{elapsed:.1f} s"
    )


def test_criterion_6_kernel_correctness():
    rng = np.random.default_rng(11)
    worst_nu = 0.0
    # sampled where |nu| stays above the absolute-error floor of the
    # oscillatory quadrature oracle, so 1e-8 relative is resolvable
    for inv_beta in (0.5, 2.0):
        kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in rng.uniform(0.02, 1.0, 10):
            s = noise_autocorrelation(float(t), kern)
            q = nu_quadrature(float(t), kern)
            worst_nu = max(worst_nu, abs(s - q) / max(abs(q), 1e-300))
    assert worst_nu < 1e-8

    worst_cl = 0.0
    for inv_beta in (1e4, 2e4):  # beta*omega_c <= 0.01 regime
        kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in (0.01, 0.05, 0.1):
            ref = 0.25 * 20.0 * inv_beta * np.exp(-20.0 * t)
            worst_cl = max(
                worst_cl, abs(noise_autocorrelation(t, kern) - ref) / ref
            )
    assert worst_cl < 1e-6

    kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=1.0)
    worst_mu = 0.0
    for t in np.linspace(0.05, 0.8, 12):
        direct = float(dissipation_kernel_scalar(t, kern))
        recon = dissipation_from_spectral_density(float(t), kern)
        worst_mu = max(worst_mu, abs(recon - direct) / direct)
    assert worst_mu < 1e-8
    print(
        f"\nPASS criterion 6 (kernel correctness): nu series vs quadrature "
        f"{worst_nu:.3e} < 1e-8, classical limit {worst_cl:.3e} < 1e-6, "
        f"mu sine transform {worst_mu:.3e} < 1e-8"
    )


def _doubled_lambda(table, kernel, t):
    """Lambda(t) from one forward pass with twice the nodes per panel and
    the first panel halved once more, all off the mesh."""
    edges = _u_panels(t, table.halvings + 1)
    cov = _forward(table, [kernel], edges, 2 * _PANEL_NODES)[0][0, -1, 1:3, 1:3]
    return 0.5 * (cov + cov.T)


def test_criterion_7_numerical_hygiene(tmp_path):
    cfg = MeasurementConfig()
    gen = build_generator(cfg)
    table = PropagatorTable(gen, 3.0)
    kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=1.0)
    worst_eig = 0.0
    worst_doubling = 0.0
    for t in np.linspace(0.1, 3.0, 15):
        cov = lambda_covariance(table, [kern], float(t))[0]
        trace = np.trace(cov)
        worst_eig = max(worst_eig, -np.linalg.eigvalsh(cov)[0] / trace)
        fine = _doubled_lambda(table, kern, float(t))
        worst_doubling = max(
            worst_doubling, np.abs(fine - cov).max() / np.abs(cov).max()
        )
    assert worst_eig <= 1e-10
    assert worst_doubling < 1e-4

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"time_grid": {"start": 0.1, "stop": 2.0, "count": 25}})
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["uncertainty", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["uncertainty", "--config", str(config), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    assert identical
    print(
        f"\nPASS criterion 7 (numerical hygiene): worst eigenvalue ratio "
        f"{worst_eig:.3e} <= 1e-10, resolution doubling {worst_doubling:.3e} "
        f"< 1e-4, CSV re-run byte-identical: {identical}"
    )
