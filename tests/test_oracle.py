import numpy as np
import pytest

from pointersim.errors import NumericalError
from pointersim.kernels import BathKernel, dissipation_kernel_scalar
from pointersim.model import GaussianMoments, MeasurementConfig, gaussian_state_moments
from pointersim import oracle
from pointersim.propagator import response_matrices
from pointersim.uncertainty import CurveEvaluator


@pytest.fixture(scope="module")
def bath_200(open_config):
    return oracle.discretize_bath(open_config, n_modes=200)


def test_closed_form_response_det(closed_config):
    for t in (0.3, 1.1):
        _, _, det_a = response_matrices(*oracle.closed_form_eta0(closed_config, t)[:2])
        assert det_a == pytest.approx(4.0 * t**2)


def test_closed_form_pointer_coefficient(closed_config):
    # X_1(t) response to P_1(0) is t - (2/3) t^3 for these couplings
    _, g, _ = oracle.closed_form_eta0(closed_config, 0.9)
    assert g[1, 1] == pytest.approx(0.9 - (2.0 / 3.0) * 0.9**3)


def test_discretize_eta_zero_couplings():
    bath = oracle.discretize_bath(MeasurementConfig(eta=0.0), n_modes=50)
    assert np.all(bath.couplings == 0.0)
    assert bath.frequencies.size == bath.n_modes  # no tail mode


def test_discretize_under_resolved_rejected(open_config):
    with pytest.raises(NumericalError, match="discrete dissipation kernel off by"):
        oracle.discretize_bath(open_config, n_modes=50)


def test_discretize_recurrence_window(open_config):
    # a coarse grid recurs before twice the validation window
    with pytest.raises(NumericalError, match="recurrence time .* shorter than"):
        oracle.discretize_bath(open_config, n_modes=100, omega_max=400.0)


def test_discretize_invalid_inputs(open_config):
    with pytest.raises(ValueError):
        oracle.discretize_bath(open_config, n_modes=0)
    with pytest.raises(ValueError):
        oracle.discretize_bath(open_config, n_modes=100, omega_max=10.0)


def test_bath_shift_exact(bath_200, open_config):
    """The tail mode makes the static potential shift exactly eta*omega_c."""
    shift = np.sum(bath_200.couplings**2 / bath_200.frequencies**2)
    assert shift == pytest.approx(
        open_config.eta * open_config.omega_c, rel=1e-12
    )


def test_mu_reconstruction(open_config):
    bath = oracle.discretize_bath(open_config, n_modes=400)
    kern = BathKernel(
        eta=open_config.eta, omega_c=open_config.omega_c, inv_beta=open_config.inv_beta
    )
    ts = np.linspace(0.2, 2.0, 64)
    mu_n = oracle.reconstructed_dissipation(bath, ts)
    mu = np.asarray(dissipation_kernel_scalar(ts, kern))
    mu0 = float(dissipation_kernel_scalar(0.0, kern))
    assert np.abs(mu_n - mu).max() / mu0 < 0.01
    assert bath.recurrence_time > 2.0 * 2.0


def test_symplectic_form_preserved(open_config):
    from scipy.linalg import expm

    w = (np.arange(5) + 0.5) * 2.0
    bath = oracle.DiscreteBath(5, 10.0, w, 0.1 * np.sqrt(w))
    f = oracle.build_full_generator(open_config, bath)
    d = 3 + 2 * 5
    j = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    for t in (0.3, 1.0):
        s = expm(f * t)
        assert np.abs(s.T @ j @ s - j).max() < 1e-9


def test_thermal_bath_heisenberg(bath_200):
    """Per-mode variance product is coth^2/4 >= 1/4, approaching 1/4 cold."""
    vq, vk = oracle.thermal_mode_variances(bath_200, 1.0)
    assert np.all(vq * vk >= 0.25 - 1e-15)
    vq0, vk0 = oracle.thermal_mode_variances(bath_200, 1e-8)
    np.testing.assert_allclose(vq0 * vk0, 0.25, rtol=1e-10)


def test_discrete_covariance_requires_uniform_grid(
    open_config, default_moments, bath_200
):
    with pytest.raises(ValueError):
        oracle.discrete_pointer_covariance(
            open_config, default_moments, bath_200, np.array([0.1, 0.3, 0.35])
        )


def test_discrete_matches_continuum_fast(open_config, default_moments):
    """Coarse version of the central cross-validation (N = 100)."""
    bath = oracle.discretize_bath(open_config, n_modes=100)
    times = np.arange(1, 11) * 0.2
    disc = oracle.discrete_pointer_covariance(
        open_config, default_moments, bath, times
    )
    cont = oracle.continuum_pointer_covariance(
        open_config, default_moments, times, "raw"
    )
    err = np.linalg.norm(disc - cont, axis=(1, 2)) / np.linalg.norm(
        cont, axis=(1, 2)
    )
    assert err.max() < 0.02


def test_continuum_closed_covariance(closed_config, default_moments):
    """eta = 0: the pointer covariance reduces to the response transform."""
    t = 1.0
    (cov,) = oracle.continuum_pointer_covariance(
        closed_config, default_moments, np.array([t]), "raw"
    )
    k, g, _ = oracle.closed_form_eta0(closed_config, t)
    cj = default_moments.cov_j
    cov_x = np.diag([1.0, cj[0, 0], cj[1, 1]])
    cov_p = np.diag([0.25, cj[2, 2], cj[3, 3]])
    expect = (k @ cov_x @ k.T + g @ cov_p @ g.T)[1:3, 1:3]
    np.testing.assert_allclose(cov, expect, rtol=1e-10)


def test_correlated_pointers_reach_both_oracles(open_config):
    """A cov_J with every pointer pair correlated (positive definite):
    both oracles must carry the whole block.  A^-1 C A^-T of the pointer
    covariance C has the diagonal var_S(0) + sigma_k^2 + Xi_k^2, so its
    sigma terms must be CurveEvaluator's: to 1e-10 from the continuum
    oracle, to 2e-3 from a 100-mode bath (measured 1.1e-4).  Read from the
    diagonal and the (X_k, P_k) entries alone, sigma_1^2 is off by 6.7%."""
    cj = np.diag([1.0, 1.0, 0.5, 0.5])
    cj[0, 1] = cj[1, 0] = 0.4
    cj[2, 3] = cj[3, 2] = -0.2
    cj[0, 3] = cj[3, 0] = 0.3
    cj[1, 2] = cj[2, 1] = 0.1
    assert np.linalg.eigvalsh(cj).min() > 0.2
    moments = GaussianMoments(cov_j=cj, var_xs0=1.0, var_ps0=0.25)
    times = np.arange(1, 11) * 0.2
    ev = CurveEvaluator(open_config, moments, 2.0, "raw")
    curve = ev.curve(times)
    a_inv = np.linalg.inv(response_matrices(*ev.table.propagators(times)[:2])[0])
    var_0 = np.array([moments.var_xs0, moments.var_ps0])
    xi = np.stack([curve.column("xi1_sq"), curve.column("xi2_sq")], axis=1)
    sigma = np.stack([curve.column("sigma1_sq"), curve.column("sigma2_sq")], axis=1)
    cont = oracle.continuum_pointer_covariance(open_config, moments, times, "raw")
    bath = oracle.discretize_bath(open_config, n_modes=100)
    disc = oracle.discrete_pointer_covariance(open_config, moments, bath, times)
    for cov, tol in ((cont, 1e-10), (disc, 2e-3)):
        inferred = np.diagonal(a_inv @ cov @ a_inv.transpose(0, 2, 1), axis1=1, axis2=2)
        assert np.abs(inferred - var_0 - xi - sigma).max() < tol * np.abs(sigma).max()


def _small_bath(n):
    """n resolved modes up to 2n plus one stiff tail mode at 100."""
    w = np.append((np.arange(n) + 0.5) * 2.0, 100.0)
    return oracle.DiscreteBath(n, 2.0 * n, w, 0.3 * np.sqrt(w))


@pytest.mark.parametrize("n_modes", [1, 7, 200])
@pytest.mark.parametrize(
    "cfg",
    [
        MeasurementConfig(),
        MeasurementConfig(eta=0.0),
        MeasurementConfig(kappa1=1.3, kappa2=0.7, mass_ratio=2.0),
    ],
    ids=["default", "closed", "generic"],
)
def test_full_generator_maps_each_half_into_the_other(cfg, n_modes):
    bath = oracle.discretize_bath(cfg, n_modes) if n_modes == 200 else _small_bath(n_modes)
    order = oracle._halves(bath.frequencies.size)
    f = oracle.build_full_generator(cfg, bath)
    assert np.array_equal(np.sort(order), np.arange(f.shape[0]))
    h = order.size // 2
    pos, mom = order[:h], order[h:]
    assert not f[np.ix_(pos, pos)].any() and not f[np.ix_(mom, mom)].any()


@pytest.mark.parametrize("state, block", [(0, "Pos', Pos'"), (1, "Mom', Mom'")])
def test_generator_with_an_entry_inside_a_half_is_refused(
    monkeypatch, open_config, default_moments, state, block
):
    """X_S lies in Pos', X_1 in Mom': a diagonal entry on either is inside its half."""
    build = oracle.build_full_generator

    def leaky(cfg, bath):
        f = build(cfg, bath)
        f[state, state] = 1e-3
        return f

    monkeypatch.setattr(oracle, "build_full_generator", leaky)
    with pytest.raises(NumericalError, match=rf"F\[{block}\] is not zero"):
        oracle.discrete_pointer_covariance(open_config, default_moments, _small_bath(7), [0.2])


def test_discrete_covariance_rejects_an_empty_grid(open_config, default_moments):
    with pytest.raises(ValueError, match="times is empty"):
        oracle.discrete_pointer_covariance(open_config, default_moments, _small_bath(7), [])


@pytest.mark.parametrize("n_modes", [200, 400])
def test_split_step_pointer_rows_match_scipy_expm(open_config, n_modes):
    """The pointer rows of one 0.2 step against SciPy's dense expm of the
    same [[0, B], [C, 0]], to 2e-13 of their largest entry."""
    from scipy.linalg import expm

    bath = oracle.discretize_bath(open_config, n_modes)
    order = oracle._halves(bath.frequencies.size)
    f = oracle.build_full_generator(open_config, bath)[np.ix_(order, order)] * 0.2
    h = order.size // 2
    rows = np.eye(f.shape[0])[1:3, order]  # X_1 and X_2 in the halves' order
    new, ref = rows @ np.block(oracle.expm(f[:h, h:], f[h:, :h])), rows @ expm(f)
    assert np.abs(new - ref).max() <= 2e-13 * np.abs(ref).max()


def _row_taylor(f, rows, dt, steps, substeps, terms=24):
    """rows @ e^{F m dt}, m = 1..steps, in long double: a Taylor series of
    the rows alone on every substep, with no scaling and squaring."""
    f, r = f.astype(np.longdouble), rows.astype(np.longdouble)
    h, out = np.longdouble(dt) / substeps, []
    for _ in range(steps):
        for _ in range(substeps):
            term = acc = r
            for k in range(1, terms):
                term = term @ f * (h / k)
                acc = acc + term
            r = acc
        out.append(r)
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here"
)
def test_discrete_covariance_matches_an_extended_precision_reference(
    open_config, default_moments
):
    """A 20-mode bath with a stiff tail, three 0.2 steps, against row-only
    long-double Taylor stepping (h * rho(F) = 0.5, 24 terms): within 1e-13
    of the covariance's largest entry."""
    bath = _small_bath(20)
    times = np.array([0.2, 0.4, 0.6])
    disc = oracle.discrete_pointer_covariance(open_config, default_moments, bath, times)
    f = oracle.build_full_generator(open_config, bath)
    sig = oracle.initial_covariance(open_config, default_moments, bath).astype(np.longdouble)
    rows = _row_taylor(f, np.eye(f.shape[0])[1:3], 0.2, 3, 40)
    ref = np.array([r @ sig @ r.T for r in rows], dtype=float)
    assert np.abs(disc - ref).max() <= 1e-13 * np.abs(ref).max()


def test_inequality_chain_gate_equals_a_curve_per_energy():
    """The gate's one ``points`` call over both energies gives exactly the
    value of one ``curve(times)`` per energy."""
    ev = CurveEvaluator(MeasurementConfig(), gaussian_state_moments(), 3.0)
    worst = -np.inf
    for inv_beta in (1.0, 2.0):
        for p in ev.with_inv_beta(inv_beta).curve(np.linspace(0.05, 3.0, 40)):
            worst = max(worst, p.bound - p.u_sq, 1.0 - p.bound)
    assert oracle._inequality_chain_margin() == worst
