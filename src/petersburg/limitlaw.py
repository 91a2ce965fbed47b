"""Semistable limit laws of St. Petersburg sums.

Covers the merging weights, characteristic functions of the conditional limit
W_{j,gamma} and the full limit W_gamma, numeric CDF inversion (batched FFT
curves, with pointwise Gil-Pelaez quadrature as their oracle), the trimmed
limit law G*, the series sampler for the a.s.-convergent trimmed-limit series
Y_{r,gamma} and its tail asymptote.  The scalar constants (centering
sequences, A_{r,gamma}, the digit constant xi, the Chernoff bound for the
conditional limit) and InversionError live in the numpy-free stpdist and are
re-exported here.

Conventions: eta = 2^j / gamma; {log2 x} = 0 at exact powers of two, matching
stpdist.psi; all dyadic scalings go through ldexp/frexp so they are exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from petersburg.stpdist import (
    InversionError,
    a_const,
    centering,
    centering_closed,
    chernoff_bound,
    chernoff_h,
    floor_log2,
    seed_blocks,
    series_center,
    xi_and_f,
)

__all__ = [
    "CdfCurve",
    "InversionError",
    "InvertedCdf",
    "p_weight",
    "r_weight",
    "log_cf_f",
    "cf_Wjgamma",
    "cf_Wgamma",
    "cdf_from_cf",
    "wjg_cdf_curve",
    "wgamma_cdf_curve",
    "curve_moments",
    "gstar_cdf",
    "gstar_cdf_error",
    "gmix_cdf",
    "sample_Y",
    "y_tail_rhs",
    "y_tail_parts",
    "a_const",
    "centering",
    "centering_closed",
    "xi_and_f",
    "chernoff_h",
    "chernoff_bound",
]


def _check_merging_gamma(gamma: float):
    if not (0.5 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [1/2, 1], got {gamma}")


def p_weight(j: int, gamma: float) -> float:
    """Merging weight of the event {maximum sits j octaves above ceil(log2 n)}:
    e^(-gamma 2^-j) (1 - e^(-gamma 2^-j)); telescopes to 1 over j in Z."""
    _check_merging_gamma(gamma)
    lam = math.ldexp(gamma, -j)
    return math.exp(-lam) * -math.expm1(-lam)


def r_weight(j: int, gamma: float, m: int) -> float:
    """P{M = m} for M Poisson(gamma 2^-j) conditioned on M >= 1."""
    _check_merging_gamma(gamma)
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = math.ldexp(gamma, -j)
    # log space keeps large lam and large m finite
    log_norm = lam if lam > 36.0 else math.log(math.expm1(lam))
    return math.exp(m * math.log(lam) - math.lgamma(m + 1) - log_norm)


# ---------------------------------------------------------------------------
# characteristic functions


def _log_cf_f_taylor(eta: float, t: float) -> complex:
    # sum_{k>=2} (it)^k/k! eta^(k-1) 2^(k-1)/(2^(k-1)-1), summed in exact
    # rational arithmetic: the terms peak near e^(|t| eta) and cancel, which
    # would wipe out float precision at |t| eta beyond ~25
    if t == 0.0:
        return 0j
    tf = Fraction(t)
    ef = Fraction(eta)
    re = Fraction(0)
    im = Fraction(0)
    power = tf * tf * ef  # t^k eta^(k-1) at k = 2
    kfact = 2
    tmag = abs(t) * abs(t) * eta / 2.0
    k = 2
    kmin = 2.0 * abs(t) * eta + 8.0
    # partial sums swing up to e^(|t| eta) before cancelling, so the stop
    # rule must compare terms to the size of the limit (~|t| eta), never to
    # the running sum
    stop = 1e-18 * (1.0 + abs(t) * eta)
    while k <= 1400:
        two = 1 << (k - 1)
        term = power * two / (kfact * (two - 1))
        # i^k cycle: k%4 = 0:+re, 1:+im, 2:-re, 3:-im
        rem = k & 3
        if rem == 0:
            re += term
        elif rem == 1:
            im += term
        elif rem == 2:
            re -= term
        else:
            im -= term
        if k >= kmin and tmag < stop:
            break
        k += 1
        power *= tf * ef
        kfact *= k
        tmag *= abs(t) * eta / k
    else:
        raise InversionError("Taylor series for log cf did not settle")
    return complex(float(re), float(im))


# Taylor coefficients 1/(k! (1 - 2^(1-k))) of the closed small-atom tail for
# k = 2..15, even and odd k apart; at |t| q <= _TAIL_CUT the first term left
# out is below 1e-21 of the sum
_TAIL_CUT = 0.25
_TAIL_COEF = [1.0 / (math.factorial(k) * (1.0 - 2.0 ** (1 - k))) for k in range(2, 16)]
_TAIL_EVEN = _TAIL_COEF[0::2][::-1]
_TAIL_ODD = _TAIL_COEF[1::2][::-1]


def _small_atom_tail(t: np.ndarray, q: float) -> np.ndarray:
    """sum over the atoms x = q 2^-e, e >= 0, of (e^(itx) - 1 - itx)/x, for
    |t| q <= 1/4: sum_{k>=2} (it)^k/k! q^(k-1)/(1 - 2^(1-k)), as two Horner
    polynomials in w = -(tq)^2.  Only tq is formed, never a power of q."""
    s = t * q
    w = -s * s
    re = np.zeros_like(s)
    im = np.zeros_like(s)
    for ce, co in zip(_TAIL_EVEN, _TAIL_ODD):
        re = re * w + ce
        im = im * w + co
    return (re * w + 1j * (im * w * s)) / q


def _atom_sum(t: np.ndarray, x: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """sum_i (e^(i t x_i) - 1 - i t comp_i)/x_i over the given atoms, summed
    through sin in row blocks that bound the (points x atoms) workspace."""
    out = np.empty(t.shape, dtype=complex)
    masses = 1.0 / x
    step = 16384
    for a in range(0, t.size, step):
        ts = t[a : a + step]
        z = np.multiply.outer(ts, x)
        out[a : a + step].real = (-2.0 * np.square(np.sin(0.5 * z))) @ masses
        out[a : a + step].imag = (np.sin(z) - np.multiply.outer(ts, comp)) @ masses
    return out


def _log_cf_f_atoms(eta: float, t):
    # sum_{d>=0} (2^d/eta)(e^(i t eta 2^-d) - 1 - i t eta 2^-d): the atoms
    # eta 2^-d with |t| eta 2^-d > 1/4 for some t one at a time, the rest in
    # closed form
    t = np.asarray(t, dtype=float).reshape(-1)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    d_cut = max(0, math.ceil(math.log2(tmax * eta / _TAIL_CUT))) if tmax > 0.0 else 0
    x = eta * np.ldexp(1.0, -np.arange(d_cut))
    return _atom_sum(t, x, x) + _small_atom_tail(t, math.ldexp(eta, -d_cut))


def log_cf_f(eta: float, t, backend: str = "auto"):
    """log of the centered CF component f_eta(t); scalar t gives a complex,
    array t a complex array.

    backend "taylor" is the exact-rational reference (scalar only), "atoms"
    the vectorized Levy atom series; "auto" picks taylor for scalars with
    moderate |t| eta and atoms otherwise.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if backend not in ("auto", "taylor", "atoms"):
        raise ValueError(f"unknown backend {backend!r}")
    if np.ndim(t) == 0:
        tt = float(t)
        if backend == "taylor" or (backend == "auto" and abs(tt) * eta <= 48.0):
            return _log_cf_f_taylor(eta, tt)
        return complex(_log_cf_f_atoms(eta, tt)[0])
    if backend == "taylor":
        return np.array([_log_cf_f_taylor(eta, float(v)) for v in np.ravel(t)]).reshape(
            np.shape(t)
        )
    return _log_cf_f_atoms(eta, t).reshape(np.shape(t))


def cf_Wjgamma(j: int, gamma: float, t, backend: str = "auto"):
    """CF of the limit law conditioned on the maximum's octave: location
    log2(eta) plus the f_eta component."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    eta = math.ldexp(1.0, j) / gamma
    mu = math.log2(eta)
    if np.ndim(t) == 0:
        return complex(np.exp(1j * float(t) * mu + log_cf_f(eta, t, backend)))
    t = np.asarray(t, dtype=float)
    return np.exp(1j * t * mu + log_cf_f(eta, t, backend))


def u_gamma_const(gamma: float) -> float:
    """Location constant of the full limit CF, from its two geometric series."""
    ks = range(1, 60)
    g2 = gamma * gamma
    a = math.fsum(g2 / (g2 + 4.0**k) for k in ks)
    b = math.fsum(1.0 / (1.0 + g2 * 4.0**k) for k in range(0, 60))
    return a - b


@functools.lru_cache(maxsize=256)
def _wgamma_drift(gamma: float, i_cut: int) -> float:
    # the shift s_gamma + u_gamma plus the k = 1 terms of the atoms 2^i/gamma,
    # i <= i_cut, with their compensator: sum x (1 - 1/(1 + x^2)) / x =
    # sum x^2/(1 + x^2); the terms fall 4x per step, so 100 of them suffice
    x = [math.ldexp(1.0, i) / gamma for i in range(i_cut - 100, i_cut + 1)]
    small = math.fsum(v * v / (1.0 + v * v) for v in x)
    return -math.log2(gamma) + u_gamma_const(gamma) + small


def cf_Wgamma(gamma: float, t):
    """CF of the untrimmed merging limit: shift s_gamma + u_gamma plus the
    two-sided dyadic atom series with the 1/(1+x^2) compensator.

    Atoms 2^i/gamma with |t| 2^i/gamma > 1/4 for some t are summed one at a
    time; the smaller ones are a closed moment series and one drift constant.
    """
    _check_merging_gamma(gamma)
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    # Atoms past 2^56/gamma are dropped: atom i has mass gamma 2^-i and a log
    # term of modulus at most 2 + |t| gamma 2^-i, so for |t| < 2^56 they add
    # less than gamma 2^-56 (2 + 1) < 2^-54 to log phi.
    i_high = 56
    i_cut = i_high if tmax == 0.0 else min(i_high, floor_log2(gamma * _TAIL_CUT / tmax))
    x = np.ldexp(1.0, np.arange(i_cut + 1, i_high + 1)) / gamma  # atoms 2^i/gamma
    log_phi = (_atom_sum(t, x, x / (1.0 + x * x))
               + _small_atom_tail(t, math.ldexp(1.0, i_cut) / gamma)
               + 1j * t * _wgamma_drift(gamma, i_cut))
    out = np.exp(log_phi)
    return complex(out[0]) if scalar else out


def _double_wgamma(phi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cf_Wgamma at 2t from its value phi at t: 2W = W' + W'' - 2 in law."""
    return phi * phi * np.exp(-2j * t)


def _double_wjg(eta: float, phi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """CF of W_{j,gamma} (or f_eta) at 2t from its value phi at t: log f_eta(2t)
    is 2 log f_eta(t) plus the one atom 2 eta of mass 1/(2 eta)."""
    return phi * phi * np.exp(np.expm1(2j * eta * t) / eta - 2j * t)


# ---------------------------------------------------------------------------
# inversion


class InvertedCdf(NamedTuple):
    value: float
    error: float


def cdf_from_cf(cf: Callable, x: float, tol: float = 1e-10) -> InvertedCdf:
    """Pointwise Gil-Pelaez inversion: 1/2 - (1/pi) int_0^inf Im(e^-itx cf)/t dt.

    The oscillatory factor is handled by weighted (QAWO) quadrature; the upper
    limit T adapts until |cf(T)| < 1e-12.  Raises InversionError when the
    budget runs out or the quadrature cannot reach the requested tolerance.
    """
    T = 64.0
    while abs(cf(T)) > 1e-12:
        T *= 2.0
        if T > 131072.0:
            raise InversionError("cf does not decay; no usable truncation point")

    def im_part(t):
        return cf(t).imag / t if t != 0.0 else 0.0

    def re_part(t):
        return cf(t).real / t if t != 0.0 else 0.0

    import warnings
    from scipy.integrate import IntegrationWarning, quad

    # Im(cf)/t can oscillate at every dyadic scale down to t = 0 (semistable
    # log-periodicity) and grow like log(1/t) for infinite-mean laws; in the
    # log substitution t = e^u the head becomes a smooth gently-periodic
    # integrand that plain extrapolating quadrature handles.  [cut, T] goes to
    # QAWO.  QUADPACK warnings are advisory (the roundoff detector is
    # conservative); the returned error bounds are what gets checked.
    cut = min(1.0, T)
    eps_t = 1e-13

    def head(u):
        t = math.exp(u)
        return (im_part(t) * math.cos(x * t) - re_part(t) * math.sin(x * t)) * t

    u_hi = math.log(cut)
    u_lo = math.log(eps_t)
    n_panels = math.ceil((u_hi - u_lo) / math.log(2.0))
    bounds = np.linspace(u_lo, u_hi, n_panels + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        v0 = 0.0
        e0 = (50.0 + abs(x)) * eps_t  # bound on the dropped (0, eps_t] sliver
        for ua, ub in zip(bounds[:-1], bounds[1:]):
            pv, pe = quad(head, ua, ub, limit=100, epsabs=tol / (8 * n_panels), epsrel=1e-12)
            v0 += pv
            e0 += pe
        if abs(x) < 1e-12:
            v1, e1 = quad(im_part, cut, T, limit=800, epsabs=tol / 8, epsrel=1e-12)
            v2, e2 = 0.0, 0.0
        else:
            v1, e1 = quad(
                im_part, cut, T, weight="cos", wvar=x, limit=800, epsabs=tol / 8, epsrel=1e-12
            )
            v2, e2 = quad(
                re_part, cut, T, weight="sin", wvar=x, limit=800, epsabs=tol / 8, epsrel=1e-12
            )
            v2, e2 = -v2, e2
    err = (e0 + e1 + e2) / math.pi + abs(cf(T))
    if err > max(tol, 1e-8) * 50:
        raise InversionError(f"inversion error estimate {err:.2e} exceeds budget at x={x}")
    val = 0.5 - (v0 + v1 + v2) / math.pi
    return InvertedCdf(min(max(val, 0.0), 1.0), err)


@dataclass
class CdfCurve:
    """CDF (and density) on a uniform grid, with a global inversion error
    estimate; evaluation clamps to 0/1 outside the window."""

    x0: float
    dx: float
    cdf: np.ndarray
    density: np.ndarray
    error: float

    def eval(self, x):
        """Cubic Hermite between grid nodes (density = derivative), so the
        interpolation error matches the integration accuracy; clamps to 0/1
        outside the window."""
        n = len(self.cdf)
        # positions one step past either edge clamp the same as any further
        # out, so huge |x| never overflows the arithmetic below; minimum and
        # maximum instead of np.clip, whose call overhead dominates small x
        x = np.asarray(x, dtype=float)
        x = np.minimum(np.maximum(x, self.x0 - self.dx), self.x0 + n * self.dx)
        pos = (x - self.x0) / self.dx
        i = np.minimum(np.maximum(np.floor(pos).astype(np.int64), 0), n - 2)
        t = pos - i
        f0, f1 = self.cdf[i], self.cdf[i + 1]
        g0, g1 = self.density[i] * self.dx, self.density[i + 1] * self.dx
        t2 = t * t
        t3 = t2 * t
        out = (
            (2 * t3 - 3 * t2 + 1) * f0
            + (t3 - 2 * t2 + t) * g0
            + (-2 * t3 + 3 * t2) * f1
            + (t3 - t2) * g1
        )
        out = np.where(pos <= 0.0, 0.0, np.where(pos >= n - 1, 1.0, out))
        return np.minimum(np.maximum(out, 0.0), 1.0)


def invert_cf_curve(
    cf: Callable, double: Callable, lo: float, hi: float, n_points: int, max_points: int = 1 << 21
) -> CdfCurve:
    """FFT inversion of a CF to a density/CDF curve on [lo, hi].

    The t-grid step is tied to the window (dt = 2pi/width); n_points doubles
    until |cf(T)| at the top of the t-grid is below 1e-12, which controls the
    ringing of the truncated transform.  cf is evaluated at the odd grid
    points t_k only; double(phi, t), the law's doubling rule, gives the CF at
    2t from its value phi at t, which fills k = odd 2^m level by level.
    Densities are clipped at 0 and the CDF renormalized; both defects are
    folded into the error estimate.  A request for more than max_points
    points raises InversionError before any cf evaluation.
    """
    width = hi - lo
    if width <= 0:
        raise ValueError("need hi > lo")
    if n_points > max_points:
        raise InversionError(f"curve needs {n_points} grid points, above the {max_points} budget")
    dt = 2.0 * math.pi / width
    n = n_points
    while True:
        t_top = dt * (n - 1)
        top = abs(cf(np.array([t_top]))[0])
        if top <= 1e-12 or n >= max_points:
            break
        n *= 2
    if top > 1e-9:
        raise InversionError(f"cf still {top:.2e} at end of t-grid (T={t_top:.1f})")
    t = dt * np.arange(n)
    phi = np.empty(n, dtype=complex)
    phi[0] = 1.0
    phi[1::2] = cf(t[1::2])
    step = 1
    while 2 * step < n:
        dst = phi[2 * step :: 4 * step]
        dst[:] = double(phi[step :: 2 * step][: dst.size], t[step :: 2 * step][: dst.size])
        step *= 2
    a = phi * np.exp(-1j * t * lo)
    a[0] *= 0.5  # trapezoid endpoint
    g = (dt / math.pi) * np.real(np.fft.fft(a))
    dx = width / n
    neg = max(0.0, float(-g.min()))
    g = np.clip(g, 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (g[:-1] + g[1:])) * dx))
    # Euler-Maclaurin endpoint correction lifts the cumulative trapezoid from
    # O(dx^2) to O(dx^4)
    gp = np.gradient(g, dx)
    cdf -= (dx * dx / 12.0) * (gp - gp[0])
    mass = float(cdf[-1])
    err = abs(1.0 - mass) + neg * width + float(top)
    if mass <= 0.5:
        raise InversionError("inverted density lost most of its mass; window misplaced")
    cdf = np.minimum.accumulate(np.minimum(cdf / mass, 1.0)[::-1])[::-1]
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    # curves can be large; a decimated grid keeps interpolation error tiny
    stride = max(1, n >> 18)
    return CdfCurve(x0=lo, dx=dx * stride, cdf=cdf[::stride], density=g[::stride] / mass, error=err)


# entry bounds of the curve caches: a limit-curves benchmark round reads 273
# W_{j,gamma} curves (about 31 MB) and a few W_gamma curves of up to 4 MB
# each; the bounds leave room above that and keep a long gamma sweep from
# holding every curve it ever built
_WJG_CACHE_SIZE = 512
_WG_CACHE_SIZE = 16


def wjg_cdf_curve(j: int, gamma: float) -> CdfCurve:
    """Cached CDF curve of the conditional limit W_{j,gamma}.

    Window: mean log2(eta), Gaussian scale sqrt(2 eta) near the centre, but the
    right edge must clear ~2.75 eta because single big Levy jumps carry mass
    way past the Gaussian range before the superexponential regime kicks in.
    The cache keeps the _WJG_CACHE_SIZE most recently read curves.
    """
    return _wjg_curve(j, float(gamma))


@functools.lru_cache(maxsize=_WJG_CACHE_SIZE)
def _wjg_curve(j: int, gamma: float) -> CdfCurve:
    eta = math.ldexp(1.0, j) / gamma
    mu = math.log2(eta)
    sigma = math.sqrt(2.0 * eta)
    lo = mu - max(25.0, 9.0 * sigma)
    hi = mu + max(50.0, 14.0 * sigma, 2.75 * eta)
    t_req = 70.0 if eta >= 0.5 else max(70.0, math.sqrt(34.0 / eta))
    dx_target = min(0.02 if eta <= 64.0 else 0.08, sigma / 6.0, 2.0 * math.pi / t_req)
    n = 1 << max(10, math.ceil(math.log2((hi - lo) / dx_target)))
    return invert_cf_curve(lambda t: cf_Wjgamma(j, gamma, t, backend="atoms"),
                           lambda phi, t: _double_wjg(eta, phi, t), lo, hi, n)


def wgamma_cdf_curve(gamma: float, hi: float = 24576.0) -> CdfCurve:
    """Cached CDF curve of the untrimmed limit W_gamma.

    The law is heavy on the right (tail ~ 1/x), so the window runs far out
    and evaluation clamps to 1 beyond it; the clamp error is P{W > hi}.  The
    tail is spiky (a big-jump bump of mass 2^-k near every 2^k/gamma), and the
    FFT wraps whatever lies beyond the edge back into the window, so the edge
    is snapped to the quiet zone sqrt(2) 2^k/gamma between bumps; the wrapped
    remainder then lands far from the bulk.  The cache keeps the
    _WG_CACHE_SIZE most recently read curves.
    """
    return _wgamma_curve(float(gamma), float(hi))


@functools.lru_cache(maxsize=_WG_CACHE_SIZE)
def _wgamma_curve(gamma: float, hi: float) -> CdfCurve:
    k = floor_log2(hi * gamma)
    hi_snap = math.ldexp(math.sqrt(2.0), k) / gamma
    lo = -48.0
    dx_target = 2.0 * math.pi / 70.0
    n = 1 << max(12, math.ceil(math.log2((hi_snap - lo) / dx_target)))
    return invert_cf_curve(lambda t: cf_Wgamma(gamma, t), _double_wgamma, lo, hi_snap, n)


def curve_moments(curve: CdfCurve) -> tuple:
    """(mean, variance) of a density curve via the trapezoid rule."""
    xs = curve.x0 + curve.dx * np.arange(len(curve.density))

    def integral(y):
        return curve.dx * (y.sum() - 0.5 * (y[0] + y[-1]))

    m0 = integral(curve.density)
    m1 = integral(curve.density * xs) / m0
    m2 = integral(curve.density * (xs - m1) ** 2) / m0
    return float(m1), float(m2)


# ---------------------------------------------------------------------------
# the trimmed limit G*


_COLLAPSE_X_MAX = 4096.0  # the collapse window never reaches beyond this x
_R_TERMS = 399  # most Poisson counts m a mixture level sums
_LOG_FACT = np.array([math.lgamma(m + 1.0) for m in range(1, _R_TERMS + 1)])
_TABLE_CACHE_SIZE = 64
# elements of one (points x terms) evaluation block: each of eval's dozen
# temporaries then stays in cache (2^18 made 200k-point queries 1.7x slower)
_EVAL_CHUNK = 1 << 14


def _collapse_cut(gamma: float, x_hi: float) -> int:
    # components with eta_s >= (range + 40) look identical below x_hi up to
    # the explicit no-big-jump factor, so curves above s are never built
    need = gamma * (x_hi + 104.0)
    return max(2, math.ceil(math.log2(need)) + 1)


class _TermTable(NamedTuple):
    groups: tuple  # (curve index jj, shifts, weights), one per conditional curve
    skipped: float  # mixture weight of the terms left out
    deficit: float  # weight the collapse factors take off above the window


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _term_table(gamma: float, star: bool, weight_tol: float, s_cut: int) -> _TermTable:
    # terms p_j r_j(m) for the level j of the maximum and its Poisson count m;
    # conditional curve j-1, shifted by (m-1) 2^j/gamma (m 2^j/gamma untrimmed)
    m = np.arange(1, _R_TERMS + 1)
    groups: dict = {}
    nominal = []  # p_j r_j(m) of every kept term, before any collapse factor
    used = 0.0
    for j in range(-8, 64):
        pj = p_weight(j, gamma)
        if pj < weight_tol:
            if j > 4 and used > 1.0 - 1e-9:
                break
            continue
        jj, factor = j - 1, 1.0
        if jj > s_cut:
            factor = math.exp(-gamma * (math.ldexp(1.0, -s_cut) - math.ldexp(1.0, -jj)))
            jj = s_cut
        lam = math.ldexp(gamma, -j)
        # r_weight for every m at once, in log space
        log_norm = lam if lam > 36.0 else math.log(math.expm1(lam))
        rw = np.exp(m * math.log(lam) - _LOG_FACT - log_norm)
        # counts up to the first whose cumulative weight reaches 1 - 1e-12
        count = min(int(np.searchsorted(np.cumsum(rw), 1.0 - 1e-12)) + 1, _R_TERMS)
        rw = rw[:count]
        keep = rw * factor > 1e-15
        step = math.ldexp(1.0, j) / gamma
        shifts = ((m[:count] - 1) if star else m[:count])[keep] * step
        shift_list, weight_list = groups.setdefault(jj, ([], []))
        shift_list.append(shifts)
        weight_list.append(pj * rw[keep] * factor)
        nominal.append(pj * rw[keep])
        used += pj
    table = tuple((jj, np.concatenate(s), np.concatenate(w)) for jj, (s, w) in groups.items())
    kept = math.fsum(np.concatenate(nominal)) if nominal else 0.0
    weights = math.fsum(np.concatenate([w for _, _, w in table])) if table else 0.0
    return _TermTable(table, max(0.0, 1.0 - kept), kept - weights)


def _mixture_table(gamma: float, xs: np.ndarray, star: bool, weight_tol: float):
    """The term table for the points xs, and the largest finite point."""
    _check_merging_gamma(gamma)
    if np.isnan(xs).any():
        raise ValueError("x must not be nan")
    finite = xs[np.isfinite(xs)]
    finite_hi = float(finite.max()) if finite.size else 0.0
    x_hi = min(max(finite_hi, 64.0), _COLLAPSE_X_MAX)
    table = _term_table(float(gamma), star, float(weight_tol), _collapse_cut(gamma, x_hi))
    return table, finite_hi


def _mixture_cdf(gamma: float, xs: np.ndarray, star: bool, weight_tol: float) -> np.ndarray:
    """Mixture CDF at xs from the cached term table: per conditional curve,
    one (points x terms) evaluation of the shifted curve times the weights.

    Curves are read through wjg_cdf_curve on every call, so its cache stays
    their only owner.  Levels with p_j < weight_tol are skipped; a level's
    counts m stop at cumulative weight 1 - 1e-12 (at most 399); curves above
    the collapse cut (set by the largest finite x, within 4096) are the cut's
    curve times the no-big-jump factor.
    """
    table, finite_hi = _mixture_table(gamma, xs, star, weight_tol)
    acc = np.zeros_like(xs)
    for jj, shifts, weights in table.groups:
        curve = wjg_cdf_curve(jj, gamma)
        # a term shifted past every x evaluates to exactly 0
        live = finite_hi - shifts >= curve.x0
        shifts, weights = shifts[live], weights[live]
        if not shifts.size:
            continue
        rows = max(1, _EVAL_CHUNK // shifts.size)
        for a in range(0, xs.size, rows):
            acc[a : a + rows] += curve.eval(xs[a : a + rows, None] - shifts) @ weights
    acc[xs == np.inf] = 1.0
    acc[xs == -np.inf] = 0.0
    return acc


def gstar_cdf(gamma: float, x, weight_tol: float = 1e-10):
    """CDF of the trimmed merging limit: the double mixture of conditional
    curves G_{j-1} shifted by (m-1) 2^j/gamma with weights p_j r_j(m).

    The terms come from a table cached per (gamma, weight_tol, collapse cut);
    gstar_cdf_error gives the matching error estimate.  Exactly 0 at -inf and
    1 at +inf; nan raises ValueError.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _mixture_cdf(gamma, xs, star=True, weight_tol=weight_tol)
    return float(out[0]) if scalar else out


def gstar_cdf_error(gamma: float, x, weight_tol: float = 1e-10):
    """Error estimate of gstar_cdf(gamma, x, weight_tol) at each x.

    The sum of the mixture weight the term table leaves out (skipped levels,
    count tails, negligible terms), the ``error`` of each conditional curve it
    reads times that curve's mixture weight, and, at x above the collapse
    window, the weight the collapse factors take off.  0 at +-inf, where G*
    is exact.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    table, _ = _mixture_table(gamma, xs, True, weight_tol)
    curves = math.fsum(
        float(w.sum()) * wjg_cdf_curve(jj, gamma).error for jj, _, w in table.groups
    )
    out = table.skipped + curves + np.where(xs > _COLLAPSE_X_MAX, table.deficit, 0.0)
    out[np.isinf(xs)] = 0.0
    return float(out[0]) if scalar else out


def gmix_cdf(gamma: float, x, weight_tol: float = 1e-10):
    """Untrimmed limit CDF assembled from the same mixture (shifts m 2^j/gamma);
    cross-checks the direct cf_Wgamma inversion."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _mixture_cdf(gamma, xs, star=False, weight_tol=weight_tol)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the series representation Y_{r,gamma}


def _psi_over_arg(vals: np.ndarray, gamma: float) -> np.ndarray:
    # Psi(v/gamma)/v = 2^-floor(log2(v/gamma))/gamma, exact dyadic scaling
    e = np.frexp(vals / gamma)[1]
    return np.ldexp(1.0 / gamma, 1 - e)


def sample_Y(
    r: int,
    gamma: float,
    truncation: int = 10_000,
    reps: int = 1,
    seed=None,
) -> np.ndarray:
    """Seeded draws of the truncated series sum_{k=r+1}^N (Psi(Z_k/gamma)/Z_k
    - Psi(k/gamma)/k) with Z_k the unit Poisson arrival times.

    The first 64 arrivals are simulated exactly; later arrivals are added per
    dyadic block of the arrival axis: within a block the summand is the
    constant 2^-m/gamma, so only the Poisson count per block matters, and
    truncation keeps the earliest arrivals by taking blocks in order.  This
    turns 10^4 terms into ~10 counts.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if truncation < r + 1:
        raise ValueError("truncation must be >= r + 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    center = series_center(r, gamma, truncation)
    out = np.empty(reps)
    pos = 0
    for rng, rows in seed_blocks(seed, reps):
        out[pos : pos + rows] = _sample_chunk_block(r, gamma, truncation, rows, rng)
        pos += rows
    return out - center


def _sample_chunk_block(r, gamma, truncation, b, rng):
    k0 = min(truncation, max(64, r + 1))
    z = np.cumsum(rng.standard_exponential((b, k0)), axis=1)
    s = _psi_over_arg(z[:, r:], gamma).sum(axis=1)
    rem = truncation - k0
    if rem == 0:
        return s
    remaining = np.full(b, rem, dtype=np.int64)
    t_lo = z[:, -1]
    m = np.frexp(t_lo / gamma)[1] - 1  # current dyadic block of the arrival axis
    for _ in range(500):
        hi = np.ldexp(gamma, m + 1)
        lam = np.where(remaining > 0, hi - t_lo, 0.0)
        counts = rng.poisson(lam)
        take = np.minimum(counts, remaining)
        s += take * np.ldexp(1.0 / gamma, -m)
        remaining -= take
        if not remaining.any():
            return s
        t_lo = hi
        m = m + 1
    raise RuntimeError("block sampler failed to exhaust the truncation budget")


def y_tail_parts(
    r: int,
    gamma: float,
    x: float,
    y0_samples: np.ndarray = None,
    truncation: int = 10_000,
    reps: int = 200_000,
    seed=0,
) -> dict:
    """Pieces of the trimmed-limit tail asymptote at x: leading term, the two
    inner probabilities (ell = 0, 1) of Y_{0,gamma} + A_{r,gamma} exceeding
    x(1 - 2^(ell - {log2(gamma x)})), and the assembled bracket."""
    if r < 0:
        raise ValueError("r must be >= 0")
    gx = gamma * x
    if gx < 2.0:
        raise ValueError("need gamma * x >= 2")
    if y0_samples is None:
        y0_samples = sample_Y(0, gamma, truncation, reps, seed)
    ys = np.sort(np.asarray(y0_samples) + a_const(r, gamma))
    n = len(ys)
    fl = floor_log2(gx)
    # psi(gx)/x = gamma 2^-fl: the power of x never forms, so nothing overflows
    leading = math.ldexp(gamma ** (r + 1) / math.factorial(r + 1), -(r + 1) * fl)
    inner = []
    for ell in (0, 1):
        # x(1 - 2^(ell - frac)) = x - 2^(fl + ell)/gamma, halved and doubled
        # exactly so that 2^(fl + ell) cannot overflow at x near the float max
        thr = 2.0 * (0.5 * x - math.ldexp(1.0 / gamma, fl + ell - 1))
        inner.append(float(n - np.searchsorted(ys, thr, side="right")) / n)
    scale = float(1 << (r + 1))
    bracket = 1.0 / scale + (scale - 1.0) * (inner[0] + inner[1] / scale)
    return {
        "leading": leading,
        "inner0": inner[0],
        "inner1": inner[1],
        "bracket": bracket,
        "value": leading * bracket,
        "reps": n,
    }


def y_tail_rhs(
    r: int,
    gamma: float,
    x: float,
    y0_samples: np.ndarray = None,
    truncation: int = 10_000,
    reps: int = 200_000,
    seed=0,
) -> float:
    """Tail asymptote of the trimmed limit Y_{r,gamma} at x (gamma x >= 2)."""
    return y_tail_parts(r, gamma, x, y0_samples, truncation, reps, seed)["value"]
