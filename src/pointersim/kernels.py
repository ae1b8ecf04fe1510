"""Phenomenological bath kernels for the Ohmic bath with algebraic cutoff.

The spectral density is I(omega) = (2*eta/pi) * omega / (omega^2/omega_c^2 + 1)
acting on the two pointers only.  The dissipation kernel follows in closed
form, mu(t) = eta*omega_c^2*exp(-omega_c*t).  The symmetric noise
autocorrelation nu(t) has no elementary closed form; it is evaluated either
by an exponential (Matsubara) series derived via residue decomposition of
the coth integrand, or by direct oscillatory quadrature, which serves as
the independent oracle for the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EvaluationAtZero,
    NumericalError,
    QuadratureNonConvergence,
    SeriesResonance,
)

__all__ = [
    "BathKernel",
    "spectral_density_scalar",
    "dissipation_kernel_scalar",
    "noise_autocorrelation",
    "nu_quadrature",
    "dissipation_from_spectral_density",
]

#: (epsabs, epsrel) settings for the oscillatory QAWF quadratures; any
#: single setting can occasionally return a wrong value with a confident
#: error estimate, so three runs vote and the closest pair wins
_QAWF_TOLERANCES = ((1e-14, 1e-13), (1e-12, 1e-10), (1e-10, 1.49e-8))


def _oscillatory_quad(f, weight: str, wvar: float, scale: float) -> float:
    """Semi-infinite cos/sin transform, cross-validated across settings;
    QuadratureNonConvergence when its error estimate exceeds 1e-6 of
    max(|value|, scale)."""
    from scipy import integrate  # only the oracle paths integrate; keep it off startup

    runs = []
    for epsabs, epsrel in _QAWF_TOLERANCES:
        res = integrate.quad(
            f, 0.0, np.inf, weight=weight, wvar=wvar, epsabs=epsabs,
            epsrel=epsrel, limit=400, limlst=200, full_output=1,
        )
        runs.append((res[0], res[1]))
    best = (np.nan, np.inf)
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            spread = abs(runs[i][0] - runs[j][0])
            err = max(spread, min(runs[i][1], runs[j][1]))
            if err < best[1]:
                keep = runs[i] if runs[i][1] <= runs[j][1] else runs[j]
                best = (keep[0], err)
    val, err = best
    if err > 1e-6 * max(abs(val), scale):
        raise QuadratureNonConvergence(
            f"{weight} transform at {wvar} has error estimate {err:.3g}, too large"
        )
    return val

#: below |t| = _SWITCH * beta the series path switches to the
#: exponential-integral representation (see _nu_smalltime)
_SWITCH = 0.05

#: distance of beta*omega_c/(2*pi) to an integer treated as resonant
_RESONANCE_TOL = 1e-6


@dataclass(frozen=True)
class BathKernel:
    """Parameters of the Ohmic bath seen by the two pointers."""

    eta: float
    omega_c: float
    inv_beta: float

    @classmethod
    def from_config(cls, cfg) -> "BathKernel":
        """The bath of a :class:`~pointersim.model.MeasurementConfig`."""
        return cls(eta=cfg.eta, omega_c=cfg.omega_c, inv_beta=cfg.inv_beta)

    @property
    def beta(self) -> float:
        return 1.0 / self.inv_beta


def spectral_density_scalar(omega, kernel: BathKernel):
    """Common diagonal entry of I(omega) for the coupled pointer rows."""
    wc = kernel.omega_c
    return (2.0 * kernel.eta / np.pi) * omega / (omega * omega / (wc * wc) + 1.0)


def dissipation_kernel_scalar(t, kernel: BathKernel):
    """mu(t) = eta*omega_c^2*exp(-omega_c*t) for t >= 0."""
    wc = kernel.omega_c
    return kernel.eta * (wc * wc) * np.exp(-wc * t)


def _exp_scaled_ei(x: np.ndarray, sign: float) -> np.ndarray:
    """exp(-x) * Ei(x) for sign = +1, exp(x) * E1(x) for sign = -1, at
    x > 0 and stable against overflow."""
    from scipy import special  # loaded on first use: eta = 0 runs never need it

    x = np.asarray(x, dtype=float)
    small = x < 600.0
    out = np.empty_like(x)
    xs = np.where(small, x, 1.0)
    integral = special.expi if sign > 0 else special.exp1
    out[small] = (np.exp(-sign * xs) * integral(xs))[small]
    xl = x[~small]
    if xl.size:
        # asymptotic e^(-x) Ei(x) ~ (1 + 1/x + 2/x^2 + 6/x^3)/x; E1 alternates
        out[~small] = (1.0 + sign / xl + 2.0 / xl**2 + sign * 6.0 / xl**3) / xl
    return out


def _cosine_lorentz_integral(tau: np.ndarray, a: float) -> np.ndarray:
    """int_0^inf w*cos(w*tau)/(w^2+a^2) dw for tau > 0.

    Equals -(1/2) * [exp(-a*tau)*Ei(a*tau) + exp(a*tau)*Ei(-a*tau)] and
    diverges like -log(a*tau) for small tau.
    """
    x = a * np.asarray(tau, dtype=float)
    return -0.5 * (_exp_scaled_ei(x, 1.0) - _exp_scaled_ei(x, -1.0))


#: y = beta*omega_c/(2*pi) up to which the quantum moments come from
#: digamma directly; above it that form cancels (R(2) is 1e-4 of its terms)
_DIGAMMA_MAX_Y = 1.0


@lru_cache(maxsize=None)
def _bose_rule():
    """t^2 and t^3 times the weight at the nodes t of the Gauss-Laguerre rule
    in x = 2*pi*t for int_0^inf h(t) * 2/(e^(2*pi*t)-1) dt; 40 nodes give
    the moments to 1e-13 relative for every y above _DIGAMMA_MAX_Y."""
    x, w = np.polynomial.laguerre.laggauss(40)
    t = x / (2.0 * np.pi)
    t2, wt3 = t**2, w / (np.pi * -np.expm1(-x)) * t**3
    t2.flags.writeable = wt3.flags.writeable = False
    return t2, wt3


def _quantum_moments(eta: float, omega_c: float, beta: float) -> tuple[float, float, float]:
    """Small-time moments of the quantum part of the nu integrand,
    B_{2k} = (eta*omega_c^2/pi) * int_0^inf w^(2k+1) * (coth(b*w/2)-1)
             / (w^2+omega_c^2) dw  for k = 0, 1, 2.

    In closed form, with y = beta*omega_c/(2*pi) and pref = eta*omega_c^2/pi:
    B0 = pref*I0, B2 = -pref*omega_c^2*S and B4 = pref*omega_c^4*R, where
    I0 = ln y - 1/(2y) - psi(y) = int_0^inf t/(t^2+y^2) * 2/(e^(2*pi*t)-1) dt
    (Binet's second formula, DLMF 5.9.13), S = I0 - 1/(12 y^2) and
    R = S + 1/(120 y^4).  For large y both differences cancel; taking the
    terms t/y^2 and -t^3/y^4 of t/(t^2+y^2) out of the integral (they give
    1/12 and -1/120) leaves S = -int t^3/(y^2 (t^2+y^2)) and
    R = int t^5/(y^4 (t^2+y^2)) against the same weight.

    Raises NumericalError when a moment is not finite: below y ~ 1e-77,
    1/y^4 overflows or y^4 underflows to zero.  Large y is the cold limit.
    """
    wc2 = omega_c * omega_c  # products, not powers: a float power overflows with an exception
    pref = eta * wc2 / math.pi
    y = beta * omega_c / (2.0 * math.pi)
    y2 = y * y
    try:
        if y <= _DIGAMMA_MAX_Y:
            from scipy.special import digamma

            s = math.log(y) - 0.5 / y - float(digamma(y)) - 1.0 / (12.0 * y2)
            r = s + 1.0 / (120.0 * y2 * y2)
        else:
            t2, wt3 = _bose_rule()
            h = wt3 / (t2 + y2)
            s, r = -float(h.sum()) / y2, float(h @ t2) / y2 / y2
        i0 = s + 1.0 / (12.0 * y2)
        moments = pref * i0, -pref * wc2 * s, pref * wc2 * wc2 * r
    except ZeroDivisionError:
        moments = (math.nan,)
    if not all(map(math.isfinite, moments)):
        raise NumericalError(
            f"the small-time moments of nu are not finite at beta*omega_c/(2*pi) = {y:.3g}; "
            "raise omega_c or lower inv_beta"
        )
    return moments


def _nu_series(tau: np.ndarray, kernel: BathKernel) -> np.ndarray:
    """Exponential-series form of nu for tau >= _SWITCH*beta (elementwise).

    nu(tau) = (eta*wc^2/2)*cot(beta*wc/2)*exp(-wc*tau)
              + (2*eta*wc^2/beta) * sum_n nu_n*exp(-nu_n*tau)/(nu_n^2-wc^2)
    with Matsubara frequencies nu_n = 2*pi*n/beta.  Derived by residue
    decomposition of coth; validated against direct quadrature.
    """
    eta, wc, beta = kernel.eta, kernel.omega_c, kernel.beta
    delta = 2.0 * np.pi / beta
    n_terms = int(np.ceil(46.0 / (delta * float(np.min(tau))))) + 1
    nu_n = delta * np.arange(1, n_terms + 1)
    terms = nu_n[:, None] * np.exp(-np.outer(nu_n, tau)) / (nu_n**2 - wc * wc)[:, None]
    series = (2.0 * eta * (wc * wc) / beta) * terms.sum(axis=0)
    drude = 0.5 * eta * (wc * wc) / np.tan(0.5 * beta * wc) * np.exp(-wc * tau)
    return drude + series


def _nu_smalltime(tau: np.ndarray, kernel: BathKernel) -> np.ndarray:
    """nu for tau << beta: exact classical part plus even Taylor quantum part.

    The classical (coth -> 1) part carries the integrable log singularity
    and is evaluated exactly via exponential integrals; the quantum
    remainder is analytic in tau^2 and expanded to fourth order.
    """
    eta, wc = kernel.eta, kernel.omega_c
    b0, b2, b4 = _quantum_moments(eta, wc, kernel.beta)
    classical = (eta * (wc * wc) / np.pi) * _cosine_lorentz_integral(tau, wc)
    return classical + b0 - 0.5 * b2 * tau**2 + b4 * tau**4 / 24.0


def _abs_times(t) -> np.ndarray:
    """|t| as a 1-D array; EvaluationAtZero where t = 0."""
    tau = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if np.any(tau == 0.0):
        raise EvaluationAtZero("nu(t) diverges logarithmically at t = 0")
    return tau


def nu_quadrature(t, kernel: BathKernel):
    """nu(t) by direct oscillatory quadrature of its frequency integral, the
    independent oracle for :func:`noise_autocorrelation`; a scalar or an
    array of times, |t| > 0."""
    tau = _abs_times(t)
    eta, wc, beta = kernel.eta, kernel.omega_c, kernel.beta

    def f(w):
        if w == 0.0:
            return 2.0 * eta / (np.pi * beta)
        return (eta * (wc * wc) / np.pi) * w / np.tanh(0.5 * beta * w) / (w * w + wc * wc)

    out = np.array([_oscillatory_quad(f, "cos", x, eta * wc * kernel.inv_beta) for x in tau])
    return float(out[0]) if np.isscalar(t) else out


def noise_autocorrelation(t, kernel: BathKernel):
    """Symmetric noise autocorrelation nu(t) (common pointer diagonal entry).

    nu(t) = (eta*wc^2/pi) int_0^inf dw w*coth(beta*w/2)*cos(w*t)/(w^2+wc^2).
    Even in t, with an integrable logarithmic divergence at t = 0, where
    evaluation is rejected.  ``t`` is a scalar or an array of times,
    |t| > 0.

    Below |t| = _SWITCH*beta the small-time form is used; above it the
    Matsubara series, which raises :class:`SeriesResonance` when
    beta*omega_c/(2*pi) lies within ``_RESONANCE_TOL`` of an integer
    n >= 1, where omega_c meets the n-th Matsubara frequency.  The
    small-time form has no pole.
    """
    tau = _abs_times(t)
    out = np.zeros_like(tau)
    if kernel.eta == 0.0:
        return float(out[0]) if np.isscalar(t) else out

    small = tau < _SWITCH * kernel.beta
    if np.any(small):
        out[small] = _nu_smalltime(tau[small], kernel)
    if np.any(~small):
        z = kernel.beta * kernel.omega_c / (2.0 * np.pi)
        if abs(z - max(round(z), 1)) < _RESONANCE_TOL:
            raise SeriesResonance(
                f"beta*omega_c/(2*pi) = {z:.12g} is within {_RESONANCE_TOL:g} of an "
                "integer, where omega_c meets a Matsubara frequency; move omega_c "
                "or inv_beta so that it lies off the integer"
            )
        out[~small] = _nu_series(tau[~small], kernel)
    return float(out[0]) if np.isscalar(t) else out


def dissipation_from_spectral_density(t: float, kernel: BathKernel) -> float:
    """Sine transform of I(omega); oracle for the closed-form mu(t)."""
    if kernel.eta == 0.0:
        return 0.0

    scale = kernel.eta * kernel.omega_c * kernel.omega_c
    return _oscillatory_quad(lambda w: spectral_density_scalar(w, kernel), "sin", t, scale)
