import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointersim.errors import NumericalError
from pointersim.model import MeasurementConfig
from pointersim.oracle import closed_form_eta0
from pointersim.propagator import (
    ExpTable,
    build_generator,
    checked_inverse,
    expm,
    propagate,
    response_matrices,
)

_SEL = np.diag([0.0, 1.0, 1.0])


def _consistency_residual(gen, t):
    """|| K - (Gdot M + G D^T) || / (1 + ||K||), the cross-check relation."""
    k, g, gd = propagate(gen, t)
    alt = gd @ gen.coupling.mass_matrix + g @ gen.coupling.damping_matrix.T
    return np.linalg.norm(k - alt) / (1.0 + np.linalg.norm(k))


def test_generator_dimensions(open_config, closed_config):
    assert build_generator(closed_config).generator.shape == (6, 6)
    assert build_generator(open_config, "renormalized").generator.shape == (8, 8)
    assert build_generator(open_config, "raw").generator.shape == (8, 8)


def test_unknown_mode_rejected(open_config):
    with pytest.raises(ValueError):
        build_generator(open_config, "physical")


def test_negative_time_rejected(open_config):
    with pytest.raises(ValueError):
        propagate(build_generator(open_config), -0.1)


def test_closed_generator_nilpotent(closed_config):
    c = build_generator(closed_config).generator
    assert np.abs(np.linalg.matrix_power(c, 4)).max() == 0.0


def test_initial_conditions(open_config):
    gen = build_generator(open_config)
    k, g, gd = propagate(gen, 0.0)
    np.testing.assert_allclose(k, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(g, np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(gd, gen.coupling.mass_inverse, atol=1e-13)


def test_small_time_taylor(open_config):
    """e^(C*t) at tiny t matches a 6-term Taylor expansion to 1e-12."""
    gen = build_generator(open_config)
    c = gen.generator
    t = 1e-3
    from scipy.linalg import expm

    taylor = np.eye(c.shape[0])
    term = np.eye(c.shape[0])
    for n in range(1, 6):
        term = term @ (c * t) / n
        taylor = taylor + term
    assert np.abs(expm(c * t) - taylor).max() < 1e-12


def test_closed_propagators_match_polynomials(closed_config):
    gen = build_generator(closed_config)
    for t in np.linspace(0.0, 3.0, 31):
        k, g, gd = propagate(gen, float(t))
        kc, gc, gdc = closed_form_eta0(closed_config, float(t))
        np.testing.assert_allclose(k, kc, atol=1e-12)
        np.testing.assert_allclose(g, gc, atol=1e-12)
        np.testing.assert_allclose(gd, gdc, atol=1e-12)


def test_closed_polynomials_generic_parameters():
    cfg = MeasurementConfig(kappa1=1.3, kappa2=0.7, mass_ratio=2.0, eta=0.0)
    gen = build_generator(cfg)
    for t in (0.4, 1.7):
        k, g, gd = propagate(gen, t)
        kc, gc, gdc = closed_form_eta0(cfg, t)
        np.testing.assert_allclose(k, kc, atol=1e-12)
        np.testing.assert_allclose(g, gc, atol=1e-12)
        np.testing.assert_allclose(gd, gdc, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(0.0, 1.5), t2=st.floats(0.0, 1.5))
def test_semigroup_property(t1, t2):
    from scipy.linalg import expm

    gen = build_generator(MeasurementConfig())
    c = gen.generator
    e12 = expm(c * (t1 + t2))
    np.testing.assert_allclose(e12, expm(c * t1) @ expm(c * t2), atol=1e-10)


def test_consistency_identity_raw(open_config):
    """K = Gdot*M + G*D^T holds exactly for the raw dynamics."""
    gen = build_generator(open_config, "raw")
    for t in (0.3, 1.0, 2.5):
        assert _consistency_residual(gen, t) < 1e-10


def test_consistency_identity_closed(closed_config):
    gen = build_generator(closed_config)
    for t in (0.3, 1.0, 2.5):
        assert _consistency_residual(gen, t) < 1e-12


def test_consistency_renormalized_memory_correction(open_config):
    """In renormalized mode the identity gains the memory convolution term

    K = Gdot*M + G*D^T + eta*omega_c * int_0^t G(t-s) e^(-omega_c*s) ds * S
    with S = diag(0,1,1), because the memory variable multiplies the
    velocity history rather than the initial position.
    """
    gen = build_generator(open_config, "renormalized")
    coup = gen.coupling
    x, w = np.polynomial.legendre.leggauss(200)
    for t in (0.5, 1.0, 2.0):
        k, g, gd = propagate(gen, t)
        s_nodes = 0.5 * t * (x + 1.0)
        ws = 0.5 * t * w
        corr = np.zeros((3, 3))
        for si, wi in zip(s_nodes, ws):
            _, gs, _ = propagate(gen, t - si)
            corr += wi * np.exp(-open_config.omega_c * si) * gs
        corr = open_config.eta * open_config.omega_c * corr @ _SEL
        alt = gd @ coup.mass_matrix + g @ coup.damping_matrix.T + corr
        assert np.abs(k - alt).max() < 1e-10
        # and without the correction the identity visibly fails
        bare = gd @ coup.mass_matrix + g @ coup.damping_matrix.T
        assert np.abs(k - bare).max() > 0.1


def test_response_matrices_closed_det(closed_config):
    gen = build_generator(closed_config)
    for t in (0.5, 1.0, 2.0):
        k, g, _ = propagate(gen, t)
        a, b, det_a = response_matrices(k, g)
        assert a.shape == (2, 2)
        assert b.shape == (2, 4)
        assert det_a == pytest.approx(4.0 * t**2, rel=1e-12)


def test_response_matrix_entries(closed_config):
    gen = build_generator(closed_config)
    t = 1.3
    k, g, _ = propagate(gen, t)
    a, _, _ = response_matrices(k, g)
    assert a[0, 0] == pytest.approx(2.0 * t, rel=1e-12)  # K_21
    assert a[0, 1] == pytest.approx(t**2, rel=1e-12)  # G_21
    assert a[1, 0] == pytest.approx(0.0, abs=1e-13)  # K_31
    assert a[1, 1] == pytest.approx(2.0 * t, rel=1e-12)  # G_31


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
@pytest.mark.parametrize("eta", [0.0, 0.25], ids=["closed", "open"])
def test_propagate_on_a_grid_equals_per_time_calls(mode, eta):
    """A table read of many times gives the same bits as a read of each
    time alone, from a table on [0, t] of its own."""
    gen = build_generator(MeasurementConfig(eta=eta), mode)
    times = np.linspace(0.0, 3.0, 41)
    stacked = propagate(gen, times)
    single = [propagate(gen, float(t)) for t in times]
    assert single[0][0].shape == (3, 3)
    for got, want in zip(stacked, zip(*single)):
        assert got.shape == (41, 3, 3)
        np.testing.assert_array_equal(got, np.array(want))


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
@pytest.mark.parametrize("eta", [0.0, 0.25], ids=["closed", "open"])
def test_table_matches_expm(mode, eta):
    """The table's e^{Ft} agrees with SciPy's expm to 1e-12 of the largest
    entry, on and between the grid nodes of t <= 3."""
    from scipy.linalg import expm

    gen = build_generator(MeasurementConfig(eta=eta), mode)
    table = ExpTable(gen, 3.0)
    times = np.concatenate([np.arange(4) * table.step, np.linspace(0.0, 3.0, 37)[1:]])
    for t, e in zip(times, table.exp(times)):
        ref = expm(gen.generator * t)
        np.testing.assert_allclose(e, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize(
    "cfg",
    [
        MeasurementConfig(eta=0.0),
        MeasurementConfig(kappa1=1.3, kappa2=0.7, mass_ratio=2.0, eta=0.0),
    ],
    ids=["default", "generic"],
)
def test_closed_table_is_one_node_at_any_range(cfg):
    """The closed generator is nilpotent (its F^4 is zero or rounding noise),
    so its table is one node with no node limit, G is its cubic at any t,
    and a time whose cubic overflows is a numerical error."""
    table = ExpTable(build_generator(cfg), 1e300)
    assert len(table._c_exp) == 4 and len(table._exp) == 1
    g, gc = table.propagators(1e5)[1], closed_form_eta0(cfg, 1e5)[1]
    np.testing.assert_allclose(g, gc, rtol=1e-12, atol=1e-12 * np.abs(gc).max())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="matrix exponential not finite at t = 1e"):
            table.exp(np.array([1.0, 1e300]))


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
def test_open_table_keeps_its_series_when_high_powers_are_tiny(mode):
    """At eta = 1e-4 and omega_c = 1e-3, F^12 or F^13 of the open generator
    falls below 1e-14 of |F|^k, yet F is not nilpotent; an open generator
    always keeps all 14 terms of its series, and its grid."""
    table = ExpTable(build_generator(MeasurementConfig(eta=1e-4, omega_c=1e-3), mode), 3.0)
    assert len(table._c_exp) == 14 and len(table._exp) > 1


def test_response_matrices_on_a_grid(open_config):
    gen = build_generator(open_config)
    times = np.array([0.4, 1.1, 2.7])
    a, b, det_a = response_matrices(*propagate(gen, times)[:2])
    assert a.shape == (3, 2, 2) and b.shape == (3, 2, 4) and det_a.shape == (3,)
    for i, t in enumerate(times.tolist()):
        a_i, b_i, det_i = response_matrices(*propagate(gen, t)[:2])
        np.testing.assert_array_equal(a[i], a_i)
        np.testing.assert_array_equal(b[i], b_i)
        assert det_a[i] == det_i


def test_checked_det_a_names_the_first_singular_row():
    """The det A check of the checked inverse names the first singular row."""
    # |det A| / ||A||^2: 0.5, then 2^-43 / 4 (below 1e-12), then 0
    a = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 2.0**-43]], np.zeros((2, 2))])
    with pytest.raises(NumericalError, match="det A = 1.14e-13 too small for inference"):
        checked_inverse(a)
    np.testing.assert_array_equal(checked_inverse(a[:1]), [np.eye(2)])


@pytest.mark.parametrize("mode", ["renormalized", "raw"])
@pytest.mark.parametrize("eta", [0.0, 0.25], ids=["closed", "open"])
def test_checked_inverse_matches_solve(default_moments, time_grid_200, mode, eta):
    """A^-1 B from the adjugate inverse agrees with a direct solve to 1e-14
    of each row's largest entry (a small entry that cancels moves by more of
    itself), and sigma_k^2 = v_k cov_J v_k^T to 1e-14 of itself."""
    gen = build_generator(MeasurementConfig(eta=eta), mode)
    a, b, _ = response_matrices(*propagate(gen, time_grid_200)[:2])
    v, ref = checked_inverse(a) @ b, np.linalg.solve(a, b)
    assert np.all(np.abs(v - ref) <= 1e-14 * np.abs(ref).max(axis=-1, keepdims=True))
    cov_j = default_moments.cov_j
    np.testing.assert_allclose(
        np.einsum("tki,ij,tkj->tk", v, cov_j, v), np.einsum("tki,ij,tkj->tk", ref, cov_j, ref),
        rtol=1e-14,
    )


def _table_stack(cfg, mode, nodes=None):
    """The arguments j*h*F of the e^{F s_j} of an open table on [0, 3], or
    of one of ``nodes`` + 1 nodes."""
    f = build_generator(cfg, mode).generator
    step = ExpTable(build_generator(cfg, mode), 3.0).step
    n = nodes if nodes is not None else int(np.ceil(3.0 / step))
    return np.arange(n + 1)[:, None, None] * step * f


#: eta 0.5, omega_c 40 and couplings 1.3/0.7/2 in raw mode make F strongly
#: non-normal (||F||_1 = 800 at rho(F) = 40), the hard case of scaling and squaring
_NON_NORMAL = MeasurementConfig(eta=0.5, omega_c=40.0, kappa1=1.3, kappa2=0.7, mass_ratio=2.0)


@pytest.mark.parametrize(
    "cfg, mode",
    [(MeasurementConfig(), "renormalized"), (MeasurementConfig(), "raw"), (_NON_NORMAL, "raw")],
    ids=["default-renormalized", "default-raw", "non-normal-raw"],
)
def test_expm_matches_scipy_on_table_stacks(cfg, mode):
    """The numpy expm agrees with SciPy's on every node of a table to 1e-13
    of the node's largest entry; both are within 2.1e-14 of a 40-digit
    reference on these stacks, and differ by at most 2.1e-14."""
    from scipy.linalg import expm as scipy_expm

    a = _table_stack(cfg, mode)
    ours, ref = expm(a), scipy_expm(a)
    assert ours.shape == a.shape
    np.testing.assert_array_equal(ours[0], np.eye(8))
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(ours - ref) <= 1e-13 * scale)


def test_expm_matches_scipy_on_a_32001_node_table():
    """A table of 32,001 nodes of the default generator: up to 16
    squarings amplify the rounding of the Pade step, and SciPy and the numpy
    expm are both off by up to 3.5e-12 of a node's largest entry from a
    40-digit reference at the far nodes; they agree to 2e-11 of it."""
    from scipy.linalg import expm as scipy_expm

    a = _table_stack(MeasurementConfig(), "renormalized", nodes=32_000)
    ours, ref = expm(a), scipy_expm(a)
    assert np.all(np.abs(ours - ref) <= 2e-11 * np.abs(ref).max(axis=(1, 2), keepdims=True))


def test_expm_of_stacked_leading_axes_and_tiny_or_huge_matrices():
    """Leading axes are kept; a zero matrix gives I exactly; a matrix whose
    powers overflow gives a result that is not finite (which ExpTable refuses)."""
    a = np.array([[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1e200, 1.0], [1.0, 0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        e = expm(a.reshape(3, 1, 2, 2))
    assert e.shape == (3, 1, 2, 2)
    np.testing.assert_allclose(e[0, 0], [[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(e[1, 0], np.eye(2))
    assert not np.isfinite(e[2]).all()
