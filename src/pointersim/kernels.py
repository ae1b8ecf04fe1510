"""Phenomenological bath kernels for the Ohmic bath with algebraic cutoff.

The spectral density is I(omega) = (2*eta/pi) * omega / (omega^2/omega_c^2 + 1)
acting on the two pointers only.  The dissipation kernel follows in closed
form, mu(t) = eta*omega_c^2*exp(-omega_c*t).  The symmetric noise
autocorrelation nu(t) has no elementary closed form.  Below t = 0.05*beta
it is a small-time form (the classical part through Shi and Chi, plus the
quantum moments to order t^4), above it an exponential (Matsubara) series
from the residues of the coth integrand.  ``nu_quadrature``, by direct
oscillatory quadrature, is the tests' independent oracle of both.
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
    "nu_log_coefficient",
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


#: most elements of a block of series terms at many points: it bounds a call's work arrays
_BLOCK = 1 << 15

#: x = a*tau up to which the power series serve, and from which the asymptotic
#: series does: its smallest term there is 1e-19 of the integral, ~ 1/x^2
_SERIES_X, _ASYMPTOTIC_X = 2.0, 50.0


def _truncated(coeffs: list, vm: float) -> list:
    """coeffs[1:n] of sum_{j>=1} coeffs[j] * v^j, whose terms fall at v = vm,
    the largest v of its branch: those above 2^-54 of the first term there."""
    return [c for j, c in enumerate(coeffs) if j and c * vm**j > 2.0**-54 * coeffs[1] * vm]


#: H_2j/(2j)!, j >= 1, with the harmonic numbers H_n: the series in x^2 of
#: Shi(x)*sinh(x) - (Chi(x) - gamma - ln x)*cosh(x), the product of the odd
#: and even halves of the series of Ei and E1 (DLMF 6.6.1-6.6.2), since
#: sum_m (-1)^(m+1) binom(n, m)/m = H_n
_SHI_CHI_SERIES = _truncated([sum(1.0 / m for m in range(1, 2 * j + 1)) / math.factorial(2 * j)
                              for j in range(31)], _SERIES_X**2)
#: (2j-1)!, j >= 1: -1 times the asymptotic series of the integral in 1/x^2,
#: -sum_{k odd} k!/x^(k+1) (DLMF 6.12.1)
_ASYMPTOTIC_SERIES = _truncated([0.0] + [float(math.factorial(2 * j - 1)) for j in range(1, 31)],
                                _ASYMPTOTIC_X**-2)
#: k in x^k/(k*k!), the terms of Ei(x) - gamma - ln x (DLMF 6.6.1): x < 50 needs 118
_EI_TERMS = np.arange(1.0, 131.0)


def _power_series(coeffs: list, v: np.ndarray) -> np.ndarray:
    """sum_{j>=1} coeffs[j-1] * v^j by Horner's rule."""
    acc = coeffs[-1] * v
    for c in coeffs[-2::-1]:
        acc += c
        acc *= v
    return acc


def _shi_chi(x: np.ndarray) -> np.ndarray:
    """Shi(x)*sinh(x) - Chi(x)*cosh(x) from the power series, 0 < x <= _SERIES_X."""
    return _power_series(_SHI_CHI_SERIES, x * x) - (np.log(x) + np.euler_gamma) * np.cosh(x)


def _cf_depth(x0: float) -> int:
    """The depth of the fraction of :func:`_exp_e1` at which Lentz's method
    converges (every factor 1 to 2 ulp) at x0; it falls as x0 grows."""
    i, b, d, c = 0, x0 + 1.0, 1.0 / (x0 + 1.0), math.inf
    while i == 0 or abs(c * d - 1.0) > 2.0**-51:
        i += 1
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
    return i


#: depth of the fraction of :func:`_exp_e1` on [n, n+1), 2 <= n < 50: the depth at n
_CF_DEPTHS = np.array([_cf_depth(max(n, _SERIES_X)) for n in range(int(_ASYMPTOTIC_X))])


def _exp_e1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for 2 <= x < 50 from the continued fraction
    1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), the even part of DLMF 6.9.1.
    It is evaluated from its tail, to the depth of floor(x), as accurate as
    Lentz's product: every point runs the levels of the deepest, those deeper
    than its own with numerator 0, which leave it where its own starts."""
    depth = _CF_DEPTHS[x.astype(np.intp)]
    levels = np.arange(1.0, depth.max() + 1.0)
    num = np.where(levels[:, None] <= depth, levels[:, None] ** 2, 0.0)  # a row per level
    denom = x + (2.0 * levels - 1.0)[:, None]
    s, t = x + (2.0 * levels.size + 1.0), np.empty_like(x)
    for j in range(levels.size - 1, -1, -1):
        np.divide(num[j], s, out=t)
        np.subtract(denom[j], t, out=s)
    return 1.0 / s


def _cosine_lorentz_integral(tau: np.ndarray, a) -> np.ndarray:
    """int_0^inf w*cos(w*tau)/(w^2+a^2) dw for tau > 0, a a scalar or one per point.

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
    step = _BLOCK // _EI_TERMS.size
    if x.size > step:
        return np.concatenate([_cosine_lorentz_integral(x[i : i + step], 1.0)
                               for i in range(0, x.size, step)])
    out = np.empty_like(x)
    low, high = x <= _SERIES_X, x >= _ASYMPTOTIC_X
    mid = ~(low | high)
    if low.any():
        out[low] = _shi_chi(x[low])
    if high.any():
        out[high] = -_power_series(_ASYMPTOTIC_SERIES, 1.0 / x[high] ** 2)
    if mid.any():
        xm = x[mid]
        terms = xm[:, None] / _EI_TERMS  # a row a point: x^k/k!, x^k/(k*k!), their sum
        np.multiply.accumulate(terms, axis=1, out=terms)
        terms /= _EI_TERMS
        ei = np.euler_gamma + np.log(xm) + terms.sum(axis=1)
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


#: n of the Matsubara frequencies nu_n = 2*pi*n/beta: a point takes n up to
#: floor(46/(nu_1*tau)) + 2, at most 148 on tau >= _SWITCH*beta
_MATSUBARA_TERMS = np.arange(1.0, 149.0)


@lru_cache(maxsize=32)
def _parameters(kernel: BathKernel, small: bool, series: bool) -> tuple:
    """omega_c, eta*omega_c^2/pi and the moments B0, B2, B4 of the small-time
    form, and the series as sum_j a_j*exp(-r_j*tau) in rows -r_j and a_j, the
    Drude term (r_0 = omega_c) then the Matsubara terms (r_n = nu_n), each if
    points take it, else zeros; NumericalError at a Matsubara resonance."""
    eta, wc, beta = kernel.eta, kernel.omega_c, kernel.beta
    moments = (wc, eta * (wc * wc) / math.pi, *_quantum_moments(eta, wc, beta)) if small else (0.0,) * 5
    table = np.zeros((2, _MATSUBARA_TERMS.size + 1))
    if series:
        z = beta * wc / (2.0 * math.pi)
        if abs(z - max(round(z), 1)) < _RESONANCE_TOL:
            raise NumericalError(
                f"beta*omega_c/(2*pi) = {z:.12g} is within {_RESONANCE_TOL:g} of an "
                "integer, where omega_c meets a Matsubara frequency; move omega_c "
                "or inv_beta so that it lies off the integer"
            )
        nu_n = (2.0 * math.pi / beta) * _MATSUBARA_TERMS
        table[:, 0] = -wc, 0.5 * eta * (wc * wc) / math.tan(0.5 * beta * wc)
        table[:, 1:] = -nu_n, (2.0 * eta * (wc * wc) / beta) * nu_n / (nu_n * nu_n - wc * wc)
    table.flags.writeable = False
    return moments, table


def _nu_series(tau: np.ndarray, rows: np.ndarray, tables: list) -> np.ndarray:
    """Exponential-series form of nu for tau >= _SWITCH*beta, at points of
    the kernels ``rows``, with the tables of :func:`_parameters`.

    nu(tau) = (eta*wc^2/2)*cot(beta*wc/2)*exp(-wc*tau)
              + (2*eta*wc^2/beta) * sum_n nu_n*exp(-nu_n*tau)/(nu_n^2-wc^2)
    with Matsubara frequencies nu_n = 2*pi*n/beta.  Derived by residue
    decomposition of coth; validated against direct quadrature.  A point's
    terms are a column of a block, summed down it and read where they end.
    """
    tables = np.array(tables).transpose(1, 2, 0)  # -r or a, term, kernel
    last = (-46.0 / (tables[0][1, rows] * tau)).astype(np.intp) + 2
    width = int(last.max()) + 1
    if last.size * width <= _BLOCK:
        blocks = [(slice(None), width)]
    else:  # of _BLOCK elements, of counts within a factor 2
        blocks, octave = [], np.frexp(last)[1]
        for e in np.flatnonzero(np.bincount(octave)).tolist():
            group, step = np.flatnonzero(octave == e), _BLOCK >> e
            blocks += [(group[i : i + step], 1 << e) for i in range(0, group.size, step)]
    out = np.empty_like(tau)
    for at, width in blocks:
        terms = tables[0][:width, rows[at]]
        terms *= tau[at]
        np.exp(terms, out=terms)
        terms *= tables[1][:width, rows[at]]
        np.add.accumulate(terms, out=terms)
        out[at] = terms[last[at], np.arange(terms.shape[1])]
    return out


def _abs_times(t) -> np.ndarray:
    """|t| as an array of at least one dimension; NumericalError where t = 0."""
    tau = np.abs(np.asarray(t, dtype=float))
    if not tau.all():
        raise NumericalError("nu(t) diverges logarithmically at t = 0")
    return tau if tau.ndim else tau.reshape(1)


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


def noise_autocorrelation(t, kernel: BathKernel | list[BathKernel]):
    """Symmetric noise autocorrelation nu(t) (common pointer diagonal entry).

    nu(t) = (eta*wc^2/pi) int_0^inf dw w*coth(beta*w/2)*cos(w*t)/(w^2+wc^2).
    Even in t, with an integrable logarithmic divergence at t = 0, where
    evaluation is rejected.  ``t`` is a scalar or an array of times,
    |t| > 0, of one :class:`BathKernel`; or a 2-D array of times with a
    sequence of kernels, one kernel per row.

    Below |t| = _SWITCH*beta the small-time form is used; above it the
    Matsubara series, which raises :class:`NumericalError` when
    beta*omega_c/(2*pi) lies within ``_RESONANCE_TOL`` of an integer
    n >= 1, where omega_c meets the n-th Matsubara frequency.  The
    small-time form has no pole.  The first row that fails raises as it
    would alone.  Every truncation of a point and the order of every sum
    over its terms are its own, so it gets the same bits in any call.
    """
    tau = _abs_times(t)
    kernels = [kernel] if isinstance(kernel, BathKernel) else list(kernel)
    if not isinstance(kernel, BathKernel) and (tau.ndim != 2 or tau.shape[0] != len(kernels)):
        raise ValueError(f"{len(kernels)} bath kernels for times of shape {tau.shape}")
    times = tau.reshape(len(kernels), -1)
    small = times < np.array([_SWITCH * k.beta for k in kernels])[:, None]
    series, out = ~small, np.empty_like(times)
    quiet = [k.eta == 0.0 for k in kernels]
    if any(quiet):  # a kernel of eta = 0 has no noise
        small[quiet] = series[quiet] = False
        out[quiet] = 0.0
    n_small = small.sum(axis=1).tolist()
    n_series = [0 if q else times.shape[1] - n for q, n in zip(quiet, n_small)]
    moments, tables = zip(*[_parameters(k, s > 0, m > 0)
                            for k, s, m in zip(kernels, n_small, n_series)])
    if any(n_small):  # the classical part exactly, the quantum part to fourth order in t
        wc, classical, b0, b2, b4 = np.repeat(np.array(moments).T, n_small, axis=1)
        x = times[small]
        x2 = x * x
        out[small] = (classical * _cosine_lorentz_integral(x, wc) + b0 - 0.5 * b2 * x2
                      + b4 * x2 * x2 / 24)
    if any(n_series):
        out[series] = _nu_series(times[series], np.repeat(np.arange(len(kernels)), n_series), tables)
    return float(out[0, 0]) if np.isscalar(t) else out.reshape(tau.shape)


def nu_log_coefficient(t: np.ndarray, kernels: list[BathKernel]) -> np.ndarray:
    """A(t) in nu(t) = A(t) ln|t| + B(t), B smooth, one kernel a row of t: the classical
    prefactor of the small-time form times the -cosh(x) at ln x in :func:`_shi_chi`."""
    wc, classical = np.array([(k.omega_c, k.eta * (k.omega_c * k.omega_c)) for k in kernels]).T
    return -(classical / math.pi)[:, None] * np.cosh(wc[:, None] * t)


def dissipation_from_spectral_density(t: float, kernel: BathKernel) -> float:
    """Sine transform of I(omega), odd in t; oracle for the closed-form mu(t), t > 0."""
    if kernel.eta == 0.0 or t == 0.0:
        return 0.0
    scale = kernel.eta * kernel.omega_c * kernel.omega_c
    quad = _oscillatory_quad(lambda w: spectral_density_scalar(w, kernel), "sin", abs(t), scale)
    return math.copysign(1.0, t) * quad
