import numpy as np
import pytest

from pointersim.errors import NumericalError
from pointersim.kernels import BathKernel, dissipation_kernel_scalar
from pointersim.model import MeasurementConfig
from pointersim import oracle
from pointersim.propagator import response_matrices


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
    assert not bath.has_tail


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
        closed_config, default_moments, np.array([t])
    )
    k, g, _ = oracle.closed_form_eta0(closed_config, t)
    cj = default_moments.cov_j
    cov_x = np.diag([1.0, cj[0, 0], cj[1, 1]])
    cov_p = np.diag([0.25, cj[2, 2], cj[3, 3]])
    expect = (k @ cov_x @ k.T + g @ cov_p @ g.T)[1:3, 1:3]
    np.testing.assert_allclose(cov, expect, rtol=1e-10)
