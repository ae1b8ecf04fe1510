import math

import numpy as np
import pytest
from scipy import integrate, special

from pointersim.errors import NumericalError
from pointersim.kernels import (
    _ASYMPTOTIC_X,
    _SERIES_X,
    BathKernel,
    _cosine_lorentz_integral,
    _digamma,
    _oscillatory_quad,
    _quantum_moments,
    dissipation_from_spectral_density,
    dissipation_kernel_scalar,
    noise_autocorrelation,
    nu_quadrature,
    spectral_density_scalar,
)

KERNEL = BathKernel(eta=0.25, omega_c=20.0, inv_beta=1.0)


def test_spectral_density_shape_and_peak():
    # peak value at omega = omega_c is eta*omega_c/pi
    assert spectral_density_scalar(20.0, KERNEL) == pytest.approx(
        0.25 * 20.0 / np.pi
    )
    # linear (Ohmic) at low frequency
    lo = spectral_density_scalar(1e-4, KERNEL)
    assert lo == pytest.approx(2.0 * 0.25 / np.pi * 1e-4, rel=1e-6)


def test_dissipation_kernel_closed_form():
    assert dissipation_kernel_scalar(0.0, KERNEL) == pytest.approx(0.25 * 400.0)
    t = 0.3
    assert dissipation_kernel_scalar(t, KERNEL) == pytest.approx(
        100.0 * np.exp(-20.0 * t)
    )


def test_dissipation_sine_transform_reconstruction():
    """mu(t) from the I(omega) sine transform matches the closed form."""
    for t in np.linspace(0.05, 0.8, 12):
        direct = float(dissipation_kernel_scalar(t, KERNEL))
        recon = dissipation_from_spectral_density(float(t), KERNEL)
        assert abs(recon - direct) / direct < 1e-8
    # beyond t ~ 1 the kernel is below the cancellation floor of the
    # oscillatory quadrature; only absolute accuracy is meaningful there
    mu0 = float(dissipation_kernel_scalar(0.0, KERNEL))
    for t in (1.0, 1.5, 2.0):
        direct = float(dissipation_kernel_scalar(t, KERNEL))
        recon = dissipation_from_spectral_density(float(t), KERNEL)
        assert abs(recon - direct) < 1e-12 * mu0


def test_dissipation_sine_transform_is_odd_in_t():
    """The quadrature runs on |t|: the transform is odd in t, and 0 at 0."""
    assert dissipation_from_spectral_density(0.0, KERNEL) == 0.0
    assert dissipation_from_spectral_density(-0.3, KERNEL) == -dissipation_from_spectral_density(
        0.3, KERNEL)


def test_nu_series_matches_quadrature_20_points():
    # restricted to times where |nu| stays above the absolute-error floor
    # of the quadrature oracle; beyond that the relative metric compares
    # noise against noise
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.02, 1.0, 10)
    for inv_beta in (0.5, 2.0):
        kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in ts:
            s = noise_autocorrelation(float(t), kern)
            q = nu_quadrature(float(t), kern)
            assert abs(s - q) / max(abs(q), 1e-300) < 1e-8


def test_nu_frozen_values():
    # values cross-checked between the series and direct quadrature
    expected = {
        0.01: 34.734615365982016,
        0.1: -4.66588760690116,
        0.5: -0.17324253043096657,
        1.0: -0.006545768835541948,
    }
    for t, ref in expected.items():
        assert noise_autocorrelation(t, KERNEL) == pytest.approx(ref, rel=1e-9)


def test_nu_even_in_t():
    assert noise_autocorrelation(-0.3, KERNEL) == pytest.approx(
        noise_autocorrelation(0.3, KERNEL), rel=1e-14
    )


def test_nu_array_evaluation():
    ts = np.array([0.01, 0.1, 0.7])
    vals = noise_autocorrelation(ts, KERNEL)
    assert vals.shape == (3,)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(noise_autocorrelation(float(t), KERNEL))


def test_nu_continuous_at_small_time_switch():
    """The exp-integral and series branches agree at the crossover."""
    cut = 0.05 * KERNEL.beta
    below = noise_autocorrelation(cut * (1 - 1e-9), KERNEL)
    above = noise_autocorrelation(cut * (1 + 1e-9), KERNEL)
    assert below == pytest.approx(above, rel=1e-7)


def test_nu_rejects_t_zero():
    with pytest.raises(NumericalError, match="diverges logarithmically at t = 0"):
        noise_autocorrelation(0.0, KERNEL)
    with pytest.raises(NumericalError, match="diverges logarithmically at t = 0"):
        nu_quadrature(np.array([0.5, 0.0]), KERNEL)


def test_nu_eta_zero():
    kern = BathKernel(eta=0.0, omega_c=20.0, inv_beta=1.0)
    assert noise_autocorrelation(0.5, kern) == 0.0


def test_nu_of_a_huge_cutoff_raises_no_overflow():
    """omega_c^4 = 1e320 is past the float range; the moments of nu form it
    as products, which stay finite on this weak bath."""
    value = noise_autocorrelation(0.01, BathKernel(eta=1e-200, omega_c=1e80, inv_beta=1.0))
    assert np.isfinite(value) and value == pytest.approx(1.047e-200, rel=1e-3)


def test_nu_classical_limit():
    """nu -> eta*omega_c*inv_beta*exp(-omega_c*t) for beta*omega_c -> 0."""
    for inv_beta in (1e4, 2e4):  # beta*omega_c = 2e-3, 1e-3
        kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
        for t in (0.01, 0.05, 0.1):
            ref = 0.25 * 20.0 * inv_beta * np.exp(-20.0 * t)
            assert abs(noise_autocorrelation(t, kern) - ref) / ref < 1e-6


def test_nu_classical_limit_quadratic_approach():
    """The leading correction to the classical limit is (beta*omega_c)^2/12."""
    inv_beta = 2e3  # beta*omega_c = 0.01
    kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
    t = 0.05
    ref = 0.25 * 20.0 * inv_beta * np.exp(-20.0 * t)
    rel = abs(noise_autocorrelation(t, kern) - ref) / ref
    bw = 20.0 / inv_beta
    assert rel == pytest.approx(bw**2 / 12.0, rel=0.05)


def test_nu_series_resonance_detection():
    # omega_c sitting exactly on the third Matsubara frequency
    inv_beta = 20.0 / (3 * 2.0 * np.pi)
    kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
    with pytest.raises(NumericalError, match=r"beta\*omega_c/\(2\*pi\) = 3 is within .* of an integer"):
        noise_autocorrelation(0.5, kern)
    # the quadrature oracle has no resonance and agrees with a nearby
    # non-resonant series evaluation
    val = nu_quadrature(0.5, kern)
    near = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta * (1 + 1e-4))
    assert val == pytest.approx(
        noise_autocorrelation(0.5, near), rel=1e-2
    )


def test_nu_small_time_has_no_resonance():
    """At an integer beta*omega_c/(2*pi), times below the switch 0.05*beta
    take the small-time form, which has no pole; a time at the switch
    takes the series and raises."""
    inv_beta = 20.0 / (3 * 2.0 * np.pi)
    kern = BathKernel(eta=0.25, omega_c=20.0, inv_beta=inv_beta)
    cut = 0.05 * kern.beta
    taus = np.array([0.1, 0.5, 0.9]) * cut
    small = noise_autocorrelation(taus, kern)
    quad = nu_quadrature(taus, kern)
    np.testing.assert_allclose(small, quad, rtol=1e-6)
    with pytest.raises(NumericalError, match="where omega_c meets a Matsubara frequency"):
        noise_autocorrelation(np.append(taus, cut), kern)


#: one sine and one cosine transform of integrands other than the bath's:
#: one that decays like 1/w, and one with a log factor
_FOURIER_CASES = {
    "sin": lambda w: w / (w * w + 4.0),
    "cos": lambda w: np.log1p(w) / (1.0 + w * w),
}


@pytest.mark.parametrize("weight", sorted(_FOURIER_CASES))
@pytest.mark.parametrize("wvar", [0.3, 1.3, 5.0])
def test_oscillatory_quad_matches_scipy_qawf(weight, wvar):
    """The double-exponential rule against SciPy's QAWF, within QAWF's own
    error estimate (3.7e-13 to 9.8e-13 absolute; the rule is measured at
    most 2.9e-15 from it on these six values, at most 4e-11 relative)."""
    f = _FOURIER_CASES[weight]
    ref, est = integrate.quad(f, 0.0, np.inf, weight=weight, wvar=wvar, epsabs=1e-12,
                              epsrel=1e-10, limit=400, limlst=200)
    assert abs(_oscillatory_quad(f, weight, wvar, 1.0) - ref) <= est


@pytest.mark.parametrize("weight", ["sin", "cos"])
def test_oscillatory_quad_refuses_an_integrand_with_a_jump(weight):
    """A step at w = 1 converges only algebraically in h: the rules at
    h = 0.1 and 0.125 differ by 0.068 (cos) and 0.076 (sin), far above 1e-6
    of the scale."""
    with pytest.raises(NumericalError, match=f"{weight} transform at 1.0 has error estimate"):
        _oscillatory_quad(lambda w: (w < 1.0).astype(float), weight, 1.0, 1.0)


def _quad_moments(eta, omega_c, beta):
    """B0, B2, B4 by adaptive quadrature of their defining integrals
    (eta*omega_c^2/pi) * int_0^inf w^(2k+1) * (coth(b*w/2)-1)/(w^2+omega_c^2) dw.

    Absolute tolerance 0: at y = beta*omega_c/(2*pi) above about 400 the
    B4 integral falls below 1e-13, and an absolute floor there would
    stop the quadrature at a few percent."""
    pref = eta * omega_c**2 / np.pi

    def moment(power):
        def f(w):
            # coth(x)-1 = 2/(exp(2x)-1), exponentially small for large w
            bw = beta * w
            if bw > 700.0:
                return 0.0
            e = np.exp(-bw)
            return w**power * 2.0 * e / (1.0 - e) / (w**2 + omega_c**2)

        return pref * integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    return moment(1), moment(3), moment(5)


#: y = beta*omega_c/(2*pi): a geometric grid, both sides of the switch
#: between the digamma and the Gauss-Laguerre forms (y = 1) and of y = 2,
#: the stretch (1, 2) where the digamma form would lose 1e-12, and points
#: within 1e-3 of a Matsubara resonance (an integer y)
_MOMENT_YS = np.concatenate([
    np.geomspace(0.01, 1000.0, 41),
    [1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0 - 1e-9, 2.0, 2.0 + 1e-9],
    np.linspace(1.1, 1.99, 9),
    [1.0005, 1.9992, 3.0008, 6.9992, 318.0005],
])


@pytest.mark.parametrize("y", _MOMENT_YS)
def test_quantum_moments_match_quadrature(y):
    beta = 2.0 * np.pi * y / 20.0
    closed = np.array(_quantum_moments(0.25, 20.0, beta))
    quad = np.array(_quad_moments(0.25, 20.0, beta))
    np.testing.assert_allclose(closed, quad, rtol=1e-10, atol=0.0)


def test_quantum_moments_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    eta, wc = 0.25, 20.0
    for y in _MOMENT_YS:
        beta = 2.0 * np.pi * y / wc
        with mpmath.workdps(40):
            ym = mpmath.mpf(beta) * wc / (2 * mpmath.pi)
            pref = eta * mpmath.mpf(wc) ** 2 / mpmath.pi
            i0 = mpmath.log(ym) - 1 / (2 * ym) - mpmath.digamma(ym)
            s = i0 - 1 / (12 * ym**2)
            r = s + 1 / (120 * ym**4)
            ref = [float(pref * i0), float(-pref * wc**2 * s), float(pref * wc**4 * r)]
        closed = _quantum_moments(eta, wc, beta)
        np.testing.assert_allclose(closed, ref, rtol=1e-12, atol=0.0, err_msg=f"y = {y}")


#: x = a*tau over [1e-15, 1e4], dense, with the float neighbours of every
#: switch: of the branches (_SERIES_X, _ASYMPTOTIC_X) and the old switch at 600
_SWITCHES = (_SERIES_X, _ASYMPTOTIC_X, 600.0)
_LORENTZ_XS = np.unique(np.concatenate(
    [np.geomspace(1e-15, 1e4, 4001)]
    + [[np.nextafter(x0, 0.0), x0, np.nextafter(x0, np.inf)] for x0 in _SWITCHES]
))


def _asymptotic_lorentz(x: float) -> float:
    """-sum_{k odd} k!/x^(k+1), the asymptotic series of the integral,
    summed until a term is below 1e-20 of the first."""
    term, terms, k = 1.0 / (x * x), [], 1
    while not terms or term > 1e-20 * terms[0]:
        terms.append(term)
        term *= (k + 1) * (k + 2) / (x * x)
        k += 2
    return -math.fsum(terms)


def test_cosine_lorentz_integral_matches_the_scipy_composition():
    """Below x = 600, -(e^-x Ei(x) - e^x E1(x))/2 from scipy.special: to
    4e-14 of the larger of the two terms, whose difference the integral is
    (SciPy's composition is itself off by up to 1.2e-14 of it near x = 50,
    against 1.2e-15 here, from a 40-digit reference).  From 600 on, where
    e^x overflows, the asymptotic series summed far out: to 1e-14 of itself."""
    x = _LORENTZ_XS
    got = _cosine_lorentz_integral(x, 1.0)
    low = x < 600.0
    ei, e1 = np.exp(-x[low]) * special.expi(x[low]), np.exp(x[low]) * special.exp1(x[low])
    scale = np.maximum(np.abs(ei), np.abs(e1))
    assert np.all(np.abs(got[low] + 0.5 * (ei - e1)) <= 4e-14 * scale)
    far = np.array([_asymptotic_lorentz(v) for v in x[~low]])
    np.testing.assert_allclose(got[~low], far, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("x0", _SWITCHES)
def test_cosine_lorentz_integral_is_continuous_at_every_switch(x0):
    """The two float neighbours of a switch differ by less than 1e-13 of
    the integral; a 4-term asymptotic series jumped by 9.3e-10 at 600."""
    below, at, above = _cosine_lorentz_integral(
        np.array([np.nextafter(x0, 0.0), x0, np.nextafter(x0, np.inf)]), 1.0)
    assert abs(above - below) < 1e-13 * abs(at)


def test_cosine_lorentz_integral_matches_mpmath():
    """To 3e-15 of the larger term against a 40-digit reference (measured:
    1.2e-15 on (2, 50), 5e-16 below, 4e-18 above)."""
    mpmath = pytest.importorskip("mpmath")
    x = _LORENTZ_XS[::20]
    got = _cosine_lorentz_integral(x, 1.0)
    with mpmath.workdps(40):
        for xi, gi in zip(x, got):
            xm = mpmath.mpf(xi)
            ei, e1 = mpmath.exp(-xm) * mpmath.ei(xm), mpmath.exp(xm) * mpmath.e1(xm)
            assert abs(gi + float((ei - e1) / 2)) <= 3e-15 * float(max(abs(ei), abs(e1))), xi


def test_digamma_matches_scipy():
    """psi on (0, 1], where the quantum moments use it, to 4e-15 relative:
    the recurrence up to y + 10 subtracts a sum of size ~3 from
    psi(y + 10) ~ 2.3, which costs up to a factor 5 of the unit roundoff."""
    y = np.concatenate([np.geomspace(1e-300, 1.0, 400), np.linspace(1e-3, 1.0, 400)])
    got = np.array([_digamma(v) for v in y])
    np.testing.assert_allclose(got, special.digamma(y), rtol=4e-15, atol=0.0)
