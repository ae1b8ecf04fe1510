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

from .errors import NumericalError

__all__ = [
    "BathKernel",
    "spectral_density_scalar",
    "dissipation_kernel_scalar",
    "noise_autocorrelation",
    "nu_quadrature",
    "dissipation_from_spectral_density",
]


@lru_cache(maxsize=None)
def _de_rule(h: float, weight: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_n = M*phi(t_n) and weights of the double-exponential rule for int_0^inf
    g(x)*sin(x) dx or *cos(x) dx (Ooura and Mori, J. Comput. Appl. Math. 112:229, 1999):
    M = pi/h, t_n = n*h on [-8, 60], less h/2 for cos, phi(t) = t/(1 - exp(-u)) with
    u = 2t + alpha*(1 - e^-t) + beta*(e^t - 1).  M*t_n sits on a zero of the trig factor,
    which for t > 0 is (-1)^n sin(M*(phi - t)), free of the cancellation of sin(M*phi)."""
    m, beta = math.pi / h, 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(math.ceil(-8.0 / h), math.floor(60.0 / h) + 1)
    t = n * h - (0.5 * h if weight == "cos" else 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at t = 0
        u = 2.0 * t - alpha * np.expm1(-t) + beta * np.expm1(t)
        e, one = np.exp(-u), -np.expm1(-u)
        phi, gap = t / one, t * e / one  # phi and phi - t
        dphi = (1.0 - t * (2.0 + alpha * np.exp(-t) + beta * np.exp(t)) * e / one) / one
    phi[t == 0.0] = gap[t == 0.0] = 1.0 / (2.0 + alpha + beta)  # the limits at t = 0
    dphi[t == 0.0] = 0.5 - (beta - alpha) / (2.0 * (2.0 + alpha + beta) ** 2)
    trig = np.where(t > 0.0, (-1.0) ** n * np.sin(m * gap), getattr(np, weight)(m * phi))
    x, w = m * phi, math.pi * dphi * trig
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _oscillatory_quad(f, weight: str, wvar: float, scale: float) -> float:
    """int_0^inf f(w)*sin(wvar*w) dw (weight "sin") or *cos (weight "cos"),
    wvar > 0, by :func:`_de_rule` at h = 0.1, with f called once on its
    array of nodes and the terms summed exactly; NumericalError when its
    distance from the rule at h = 0.125 exceeds 1e-6 of max(|value|, scale)."""
    val, coarse = (math.fsum((f(x / wvar) * w).tolist()) / wvar
                   for x, w in (_de_rule(h, weight) for h in (0.1, 0.125)))
    err = abs(val - coarse)
    if not err <= 1e-6 * max(abs(val), scale):
        raise NumericalError(f"{weight} transform at {wvar} has error estimate {err:.3g}, too large")
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


#: H_2j/(2j)!, j = 0, ..., 30, with the harmonic numbers H_n: the series in
#: x^2 of Shi(x)*sinh(x) - (Chi(x) - gamma - ln x)*cosh(x), the product of the
#: odd and even halves of the series of Ei and E1 (DLMF 6.6.1-6.6.2), since
#: sum_m (-1)^(m+1) binom(n, m)/m = H_n
_SHI_CHI_SERIES = [sum(1.0 / m for m in range(1, 2 * j + 1)) / math.factorial(2 * j)
                   for j in range(31)]
#: (2j-1)!, j = 0, ..., 30 (j = 0 unused): -1 times the asymptotic series of
#: the integral in 1/x^2, -sum_{k odd} k!/x^(k+1) (DLMF 6.12.1)
_ASYMPTOTIC_SERIES = [0.0] + [float(math.factorial(2 * j - 1)) for j in range(1, 31)]
#: x = a*tau up to which the power series serve, and from which the asymptotic
#: series does: its smallest term there is 1e-19 of the integral, ~ 1/x^2
_SERIES_X, _ASYMPTOTIC_X = 2.0, 50.0


def _power_series(coeffs: list, v: np.ndarray) -> np.ndarray:
    """sum_{j>=1} coeffs[j] * v^j for v >= 0 and coefficients >= 0, by Horner's
    rule, with the terms the largest v needs to double precision."""
    vm, power, total, n = float(v.max()), 1.0, 0.0, 1
    while coeffs[n] * power * vm > 2.0**-54 * total:
        power *= vm
        total += coeffs[n] * power
        n += 1
    acc = 0.0
    for c in coeffs[n - 1 : 0 : -1]:
        acc = (acc + c) * v
    return acc


def _shi_chi(x: np.ndarray) -> np.ndarray:
    """Shi(x)*sinh(x) - Chi(x)*cosh(x) from the power series, 0 < x <= _SERIES_X."""
    return _power_series(_SHI_CHI_SERIES, x * x) - (np.log(x) + np.euler_gamma) * np.cosh(x)


def _exp_e1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for x > 1 from the continued fraction
    1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), the even part of DLMF 6.9.1.
    It is evaluated from its tail, to the depth at which Lentz's method
    converges (every factor 1 to 2 ulp) for the smallest x, where the fraction
    converges slowest: as accurate as Lentz's product, and a third the work."""
    x0, i = float(x.min()), 0
    b, d, c = x0 + 1.0, 1.0 / (x0 + 1.0), math.inf
    while i == 0 or abs(c * d - 1.0) > 2.0**-51:
        i += 1
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
    tail = 0.0
    for j in range(i, 0, -1):
        tail = j * j / (x + (2 * j + 1) - tail)
    return 1.0 / (x + 1.0 - tail)


def _cosine_lorentz_integral(tau: np.ndarray, a: float) -> np.ndarray:
    """int_0^inf w*cos(w*tau)/(w^2+a^2) dw for tau > 0.

    Equals -(1/2) * [exp(-x)*Ei(x) - exp(x)*E1(x)] = Shi(x)*sinh(x) -
    Chi(x)*cosh(x) (DLMF 6.2.15-6.2.16) at x = a*tau and diverges like
    -log(x) for small x.  Each branch runs on its own points:
    - x <= _SERIES_X: the power series of Shi and Chi;
    - x < _ASYMPTOTIC_X: Ei from its series, E1 from its continued fraction;
    - above: the asymptotic series.
    """
    x = a * np.asarray(tau, dtype=float)
    if x.max() <= _SERIES_X:  # the common case: one branch, nothing to mask
        return _shi_chi(x)
    out = np.empty_like(x)
    low, high = x <= _SERIES_X, x >= _ASYMPTOTIC_X
    mid = ~(low | high)
    if low.any():
        out[low] = _shi_chi(x[low])
    if high.any():
        out[high] = -_power_series(_ASYMPTOTIC_SERIES, 1.0 / x[high] ** 2)
    if mid.any():
        xm = x[mid]
        k = np.arange(1.0, 131.0)  # x^k/(k*k!) (DLMF 6.6.1): x < 50 needs 118 terms
        ei = np.euler_gamma + np.log(xm) + np.cumprod(xm[:, None] / k, axis=1) @ (1.0 / k)
        out[mid] = -0.5 * (np.exp(-xm) * ei - _exp_e1(xm))
    return out


#: y = beta*omega_c/(2*pi) up to which the quantum moments come from
#: digamma directly; above it that form cancels (R(2) is 1e-4 of its terms)
_DIGAMMA_MAX_Y = 1.0


def _digamma(y: float) -> float:
    """psi(y) for y > 0: the recurrence psi(y) = psi(y+1) - 1/y up to y >= 10,
    then the asymptotic series through B_14/(14 y^14) (DLMF 5.5.2, 5.11.2),
    whose first omitted term is below 5e-17 there."""
    shift = 0.0
    while y < 10.0:
        shift += 1.0 / y
        y += 1.0
    z = 1.0 / (y * y)
    tail = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (
        1 / 132 - z * (691 / 32760 - z / 12))))))
    return math.log(y) - 0.5 / y - tail - shift


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
            s = math.log(y) - 0.5 / y - _digamma(y) - 1.0 / (12.0 * y2)
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
    """|t| as a 1-D array; NumericalError where t = 0."""
    tau = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
    if np.any(tau == 0.0):
        raise NumericalError("nu(t) diverges logarithmically at t = 0")
    return tau


def nu_quadrature(t, kernel: BathKernel):
    """nu(t) by direct oscillatory quadrature of its frequency integral, the
    independent oracle for :func:`noise_autocorrelation`; a scalar or an
    array of times, |t| > 0."""
    tau = _abs_times(t)
    eta, wc, beta = kernel.eta, kernel.omega_c, kernel.beta

    def f(w):  # every node is > 0
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
    Matsubara series, which raises :class:`NumericalError` when
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
            raise NumericalError(
                f"beta*omega_c/(2*pi) = {z:.12g} is within {_RESONANCE_TOL:g} of an "
                "integer, where omega_c meets a Matsubara frequency; move omega_c "
                "or inv_beta so that it lies off the integer"
            )
        out[~small] = _nu_series(tau[~small], kernel)
    return float(out[0]) if np.isscalar(t) else out


def dissipation_from_spectral_density(t: float, kernel: BathKernel) -> float:
    """Sine transform of I(omega), odd in t; oracle for the closed-form mu(t), t > 0."""
    if kernel.eta == 0.0 or t == 0.0:
        return 0.0
    scale = kernel.eta * kernel.omega_c * kernel.omega_c
    quad = _oscillatory_quad(lambda w: spectral_density_scalar(w, kernel), "sin", abs(t), scale)
    return math.copysign(1.0, t) * quad
