"""Semistable limit laws of St. Petersburg sums.

Covers the merging weights, the characteristic functions of the conditional
limit W_{j,gamma} and the full limit W_gamma, their FFT CDF curves (pointwise
Gil-Pelaez quadrature is their oracle), the trimmed limit law G*, the series
sampler for the trimmed-limit series Y_{r,gamma}, and its tail asymptote,
read off the W_gamma curve.  The scalar constants and InversionError live in
the numpy-free stpdist; this module imports only those it uses.

Conventions: eta = 2^j / gamma; {log2 x} = 0 at exact powers of two, matching
stpdist.psi; all dyadic scalings go through ldexp/frexp so they are exact.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from petersburg.stpdist import (
    InversionError,
    a_const,
    chernoff_h,
    eta_jgamma,
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
    "y_tail_parts",
]


def _check_merging_gamma(gamma: float):
    if not (0.5 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [1/2, 1], got {gamma}")


def p_weight(j: int, gamma: float) -> float:
    """Merging weight of the event {maximum sits j octaves above ceil(log2 n)}:
    e^(-gamma 2^-j) (1 - e^(-gamma 2^-j)); telescopes to 1 over j in Z."""
    _check_merging_gamma(gamma)
    try:
        lam = math.ldexp(gamma, -j)
    except OverflowError:  # e^-lam is then far below the smallest float
        return 0.0
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
    from fractions import Fraction

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


def _atom_sum(t: np.ndarray, ladder: np.ndarray, comp: np.ndarray,
              ascending: bool) -> np.ndarray:
    """sum_i (e^(i t x_i) - 1 - i t comp_i)/x_i over the atoms x_i of a dyadic
    ladder, summed through sin in row blocks that bound the (points x atoms)
    workspace.

    ladder holds the atoms in summation order plus one half-atom at its small
    end: first when ascending, last when not.  Each atom is twice its smaller
    neighbour and halving is exact, so t x_i / 2 is t x_(i-1) bit for bit, and
    one sin over the ladder gives both sin(t x_i / 2), for the real part
    -2 sin^2(t x_i / 2), and sin(t x_i), for the imaginary part.
    """
    atoms, halves = slice(1, None), slice(None, -1)
    if not ascending:
        atoms, halves = halves, atoms
    out = np.empty(t.shape, dtype=complex)
    masses = 1.0 / ladder[atoms]
    step = 16384
    for a in range(0, t.size, step):
        ts = t[a : a + step]
        s = np.sin(np.multiply.outer(ts, ladder))
        out[a : a + step].real = (-2.0 * np.square(s[:, halves])) @ masses
        out[a : a + step].imag = (s[:, atoms] - np.multiply.outer(ts, comp)) @ masses
    return out


def _abs_max(t: np.ndarray) -> float:
    """max |t| (0 for no points); a non-finite t raises ValueError."""
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    if not math.isfinite(tmax):
        raise ValueError(f"t must be finite, got max |t| = {tmax}")
    return tmax


def _log_cf_f_atoms(eta: float, t: np.ndarray, tmax: float) -> np.ndarray:
    # sum_{d>=0} (2^d/eta)(e^(i t eta 2^-d) - 1 - i t eta 2^-d) at a flat t
    # with max |t| = tmax: the atoms eta 2^-d with tmax eta 2^-d > 1/4 one at
    # a time, the rest in closed form
    d_cut = max(0, math.ceil(math.log2(tmax * eta / _TAIL_CUT))) if tmax > 0.0 else 0
    ladder = eta * np.ldexp(1.0, -np.arange(d_cut + 1))  # descending, half-atom last
    return (_atom_sum(t, ladder, ladder[:-1], ascending=False)
            + _small_atom_tail(t, math.ldexp(eta, -d_cut)))


def log_cf_f(eta: float, t, backend: str = "atoms"):
    """log of the centered CF component f_eta(t); scalar t gives a complex,
    array t a complex array.

    backend "atoms" sums the Levy atoms eta 2^-d (vectorized, scalars as a
    one-point array); "taylor" is the exact-rational power series, one point
    at a time, kept as the oracle the atom series is checked against.
    eta must be positive and finite and t finite, else ValueError.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if backend not in ("atoms", "taylor"):
        raise ValueError(f"unknown backend {backend!r}")
    ta = np.asarray(t, dtype=float)
    flat = ta.reshape(-1)
    tmax = _abs_max(flat)
    if backend == "taylor":
        out = np.array([_log_cf_f_taylor(eta, float(v)) for v in flat], dtype=complex)
    else:
        out = _log_cf_f_atoms(eta, flat, tmax)
    return complex(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)


def cf_Wjgamma(j: int, gamma: float, t):
    """CF of the limit law conditioned on the maximum's octave: location
    log2(eta) plus the f_eta component, eta = 2^j / gamma.

    gamma must be positive and finite, and t finite, else ValueError.
    """
    eta = eta_jgamma(j, gamma)
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    log_f = log_cf_f(eta, t)  # validates t
    out = np.exp(1j * t * math.log2(eta) + log_f)
    return complex(out[0]) if scalar else out


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
    tmax = _abs_max(t)
    # Atoms past 2^56/gamma are dropped: atom i has mass gamma 2^-i and a log
    # term of modulus at most 2 + |t| gamma 2^-i, so for |t| < 2^56 they add
    # less than gamma 2^-56 (2 + 1) < 2^-54 to log phi.
    i_high = 56
    i_cut = i_high if tmax == 0.0 else min(i_high, floor_log2(gamma * _TAIL_CUT / tmax))
    # atoms 2^i/gamma, i_cut < i <= i_high, after the half-atom 2^i_cut/gamma
    ladder = np.ldexp(1.0, np.arange(i_cut, i_high + 1)) / gamma
    x = ladder[1:]
    log_phi = (_atom_sum(t, ladder, x / (1.0 + x * x), ascending=True)
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


# the most panels a pointwise inversion may cut its range into
_PANEL_BUDGET = 1 << 14


@functools.cache
def _gauss_legendre() -> tuple:
    """The 16 and 32 Gauss-Legendre nodes on [-1, 1] in one array, and the
    two weight vectors; made on the first inversion, since `import numpy`
    does not load numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    (x16, w16), (x32, w32) = leggauss(16), leggauss(32)
    return np.concatenate([x16, x32]), w16, w32


def cdf_from_cf(cf: Callable, x: float, tol: float = 1e-10) -> InvertedCdf:
    """Pointwise Gil-Pelaez inversion: 1/2 - (1/pi) int_0^inf Im(e^-itx cf)/t dt.

    cf takes a 1-D float array of t and returns the CF there.  The upper limit
    T doubles from 64 until |cf(T)| < 1e-12 (at most 131072).  The head
    (1e-13, 1] is integrated in u = log t over octave panels, the tail [1, T]
    in t over panels no wider than min(1, 2/|x|).  Each panel is summed at 16
    and at 32 Gauss-Legendre nodes; G32 is its value, |G32 - G16| its error,
    and a panel whose error is above its share of tol is bisected, so the
    errors of the panels kept add up to at most tol.  Each round makes one cf
    call over the nodes of all panels still open.  A partition of more than
    2^14 panels raises InversionError, before the quadrature when the tail
    alone needs that many (large |x|), and so does a reported error above
    50 max(tol, 1e-8).  A non-finite x, or a tol outside (0, inf), raises
    ValueError before any cf call.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    T = 64.0
    while (cf_T := float(abs(cf(np.array([T]))[0]))) > 1e-12:
        T *= 2.0
        if T > 131072.0:
            raise InversionError("cf does not decay; no usable truncation point")
    # Im(cf)/t can oscillate at every dyadic scale down to t = 0 (semistable
    # log-periodicity) and grow like log(1/t) for infinite-mean laws; in u =
    # log t the head integrand Im(e^-itx cf(t)) is gently periodic.  On a tail
    # panel e^-itx turns by at most 2 radians
    eps_t = 1e-13
    u_lo = math.log(eps_t)
    n_head = math.ceil(-u_lo / math.log(2.0))
    n_tail = (T - 1.0) * max(1.0, abs(x) / 2.0)
    if n_head + n_tail > _PANEL_BUDGET:
        raise InversionError(f"x={x} needs {n_tail:.3g} tail panels on [1, {T:g}], "
                             f"above the {_PANEL_BUDGET}-panel budget")
    n_tail = math.ceil(n_tail)
    head_edges = np.linspace(u_lo, 0.0, n_head + 1)
    tail_edges = np.linspace(1.0, T, n_tail + 1)
    lo = np.concatenate([head_edges[:-1], tail_edges[:-1]])
    hi = np.concatenate([head_edges[1:], tail_edges[1:]])
    head = np.arange(lo.size) < n_head
    # the two regions split tol, and a panel's share is its part of its
    # region's width, so the panels' errors add up to at most tol
    share = (hi - lo) * np.where(head, tol / (2.0 * -u_lo), tol / (2.0 * (T - 1.0)))
    nodes, w16, w32 = _gauss_legendre()
    value = 0.0
    err = (50.0 + abs(x)) * eps_t  # bound on the dropped (0, eps_t] sliver
    n_panels = lo.size
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * nodes
        t[head] = np.exp(t[head])
        g = (np.exp(-1j * x * t) * cf(t.ravel()).reshape(t.shape)).imag
        g[~head] /= t[~head]
        g16 = (g[:, :16] @ w16) * half
        g32 = (g[:, 16:] @ w32) * half
        e = np.abs(g32 - g16)
        done = e <= share
        value += float(np.sum(g32[done]))
        err += float(np.sum(e[done]))
        split = ~done
        n_panels += int(np.count_nonzero(split))
        if n_panels > _PANEL_BUDGET:
            raise InversionError(f"quadrature needs more than {_PANEL_BUDGET} panels at x={x}")
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        head = np.tile(head[split], 2)
        share = np.tile(0.5 * share[split], 2)
    err = err / math.pi + cf_T
    if err > max(tol, 1e-8) * 50:
        raise InversionError(f"inversion error estimate {err:.2e} exceeds budget at x={x}")
    val = 0.5 - value / math.pi
    return InvertedCdf(min(max(val, 0.0), 1.0), err)


def _hermite(x, x0, dx, n, cdf: np.ndarray, density: np.ndarray, slope: bool = True):
    """Cubic Hermite interpolation at x of the CDF nodes cdf on the grid
    x0 + k dx, k < n, with density their derivative: (value, slope), or the
    value alone when slope is False.  The value is exactly 0 at or left of
    the first node, 1 at or right of the last, clamped to [0, 1] between; the
    slope is the cubic's derivative, 0 outside the nodes."""
    # positions one step past either edge clamp the same as any further
    # out, so huge |x| never overflows the arithmetic below; minimum and
    # maximum instead of np.clip, whose call overhead dominates small x
    x = np.minimum(np.maximum(x, x0 - dx), x0 + n * dx)
    pos = (x - x0) / dx
    # the node index is clamped to [0, n - 2] while still a float (exact at
    # these sizes), so that t is a difference of two floats
    i = np.minimum(np.maximum(np.floor(pos), 0.0), n - 2)
    t = pos - i
    k = i.astype(np.int64)
    f0, f1 = cdf.take(k), cdf[1:].take(k)
    g0, g1 = density.take(k) * dx, density[1:].take(k) * dx
    t2 = t * t
    t3 = t2 * t
    u = 3 * t2
    out = (2 * t3 - u + 1) * f0 + (t3 - 2 * t2 + t) * g0 + (-2 * t3 + u) * f1 + (t3 - t2) * g1
    left, right = pos <= 0.0, pos >= n - 1
    out = np.minimum(np.maximum(np.where(left, 0.0, np.where(right, 1.0, out)), 0.0), 1.0)
    if not slope:
        return out
    d = ((6 * t2 - 6 * t) * (f0 - f1) + (u - 4 * t + 1) * g0 + (u - 2 * t) * g1) / dx
    return out, np.where(left | right, 0.0, d)


class CdfCurve(NamedTuple):
    """CDF (and density) on a uniform grid, with a global inversion error
    estimate (a G* segment holds one per node interval); evaluation clamps
    to 0/1 outside the window."""

    x0: float
    dx: float
    cdf: np.ndarray
    density: np.ndarray
    error: float

    def eval(self, x):
        """Cubic Hermite between grid nodes (density = derivative), so the
        interpolation error matches the integration accuracy; clamps to 0/1
        outside the window."""
        return _hermite(np.asarray(x, dtype=float), self.x0, self.dx, len(self.cdf),
                        self.cdf, self.density, slope=False)


# |cf| budget of the t-grid: at its top point, and for the bound on the part
# the octave fill leaves at zero
_CF_FLOOR = 1e-12
# the octaves [k, 2k) below this k share one cf call
_OCTAVE_BATCH = 1 << 10
# largest t-grid a curve may use; a build that needs more is refused
_MAX_POINTS = 1 << 21


def _fill_cf_grid(cf: Callable, double: Callable, t: np.ndarray) -> tuple:
    """The filled prefix of the CF on the grid t_k = k dt, filled octave by
    octave as invert_cf_curve describes, and the stop bound (0 when every
    point was filled); the points above the prefix are zero."""
    n = t.size
    phi = np.zeros(n, dtype=complex)
    phi[0] = 1.0
    head = min(n, _OCTAVE_BATCH)
    phi[1:head:2] = cf(t[1:head:2])
    k = 2
    while k < n:
        top = min(2 * k, n)
        if k >= _OCTAVE_BATCH:
            phi[k + 1 : top : 2] = cf(t[k + 1 : top : 2])
        evens = slice(k // 2, k // 2 + (top - k + 1) // 2)
        phi[k:top:2] = double(phi[evens], t[evens])
        if top >= head:
            b = float(np.max(np.abs(phi[k:top])))
            bound = 2.0 * (n - top) * b * b
            if bound <= _CF_FLOOR:
                return phi[:top], bound
        k = top
    return phi, 0.0


def invert_cf_curve(cf: Callable, double: Callable, lo: float, hi: float, n_points: int) -> CdfCurve:
    """FFT inversion of a CF to a density/CDF curve on [lo, hi].

    The t-grid step is tied to the window (dt = 2pi/width); |cf(T)| at the
    top of the t-grid, which controls the ringing of the truncated transform,
    must be at most 1e-12, else InversionError.  The grid is filled one octave
    [k, 2k) of indices at a time from the bottom: cf gives the odd points
    (the octaves below k = 2^10 in one call), and double(phi, t), the law's
    doubling rule, gives the CF at 2t from its value phi at t, for the even
    ones.  double must satisfy |double(phi, t)| <= |phi|^2, so an octave
    whose largest |phi| is b bounds every higher point by b^2.  A dropped
    point moves the CDF by at most width dt / pi = 2 times its |phi|, so once
    2 (n - 2k) b^2 <= 1e-12 the fill stops and the points above stay zero.
    The octave's largest |phi| on the grid stands in for its supremum over
    [k dt, 2k dt), which the bound strictly needs.  The error estimate is
    |1 - mass| of the density, plus its clipped negative part, |cf(T)| and
    the stop bound.  Densities are clipped at 0 and the CDF renormalized.
    A request for more than _MAX_POINTS points raises InversionError before
    any cf evaluation.
    """
    width = hi - lo
    if width <= 0:
        raise ValueError("need hi > lo")
    if n_points > _MAX_POINTS:
        raise InversionError(f"curve needs {n_points} grid points, above the {_MAX_POINTS} budget")
    dt = 2.0 * math.pi / width
    n = n_points
    t_top = dt * (n - 1)
    top = abs(cf(np.array([t_top]))[0])
    if top > _CF_FLOOR:
        raise InversionError(f"cf still {top:.2e} at end of t-grid (T={t_top:.1f})")
    t = dt * np.arange(n)
    phi, skipped = _fill_cf_grid(cf, double, t)
    a = phi * np.exp(-1j * t[: phi.size] * lo)
    a[0] *= 0.5  # trapezoid endpoint
    # the fft zero-pads the unfilled top of the grid back to n points
    g = (dt / math.pi) * np.real(np.fft.fft(a, n))
    dx = width / n
    neg = max(0.0, float(-g.min()))
    g = np.clip(g, 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (g[:-1] + g[1:])) * dx))
    # Euler-Maclaurin endpoint correction lifts the cumulative trapezoid from
    # O(dx^2) to O(dx^4)
    gp = np.gradient(g, dx)
    cdf -= (dx * dx / 12.0) * (gp - gp[0])
    mass = float(cdf[-1])
    err = abs(1.0 - mass) + neg * width + float(top) + skipped
    if mass <= 0.5:
        raise InversionError("inverted density lost most of its mass; window misplaced")
    cdf = np.minimum.accumulate(np.minimum(cdf / mass, 1.0)[::-1])[::-1]
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    # curves keep at most 2^18 of their grid's nodes, a decimated grid keeps
    # interpolation error tiny; copied, so a cached curve holds only those
    stride = max(1, n >> 18)
    return CdfCurve(x0=lo, dx=dx * stride, cdf=np.ascontiguousarray(cdf[::stride]),
                    density=g[::stride] / mass, error=err)


# entry bounds of the curve caches: a G* segment reads about 20 W_{j,gamma}
# curves of one gamma while it is built, and a few W_gamma curves of up to
# 4 MB each are read again and again; the bounds keep a long gamma sweep
# from holding every curve it ever built
_WJG_CACHE_SIZE = 32
_WG_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_WJG_CACHE_SIZE)
def wjg_cdf_curve(j: int, gamma: float) -> CdfCurve:
    """Cached CDF curve of the conditional limit W_{j,gamma}.

    Window: mean log2(eta), Gaussian scale sqrt(2 eta) near the centre, but the
    right edge must clear ~2.75 eta because single big Levy jumps carry mass
    way past the Gaussian range before the superexponential regime kicks in.
    The cache keeps the _WJG_CACHE_SIZE most recently read curves.  gamma
    must be positive and finite and 2^j/gamma finite and nonzero, else
    ValueError; a window too fine for any t-grid raises InversionError.
    """
    gamma = float(gamma)
    eta_jgamma(j, gamma)
    return _wjg_curve(j, gamma)


def _wjg_window(j: int, gamma: float) -> tuple:
    """(eta, lo, hi, n): the window [lo, hi] and FFT grid size of W_{j,gamma}."""
    eta = math.ldexp(1.0, j) / gamma
    mu = math.log2(eta)
    sigma = math.sqrt(2.0 * eta)
    lo = mu - max(25.0, 9.0 * sigma)
    hi = mu + max(50.0, 14.0 * sigma, 2.75 * eta)
    t_req = 70.0 if eta >= 0.5 else max(70.0, math.sqrt(34.0 / eta))
    dx_target = min(0.02 if eta <= 64.0 else 0.08, sigma / 6.0, 2.0 * math.pi / t_req)
    if dx_target == 0.0:
        raise InversionError(f"W_{{{j},{gamma}}} needs a t-grid past the float range")
    n = 1 << max(10, math.ceil(math.log2((hi - lo) / dx_target)))
    return eta, lo, hi, n


def _wjg_curve(j: int, gamma: float) -> CdfCurve:
    """The uncached build of the W_{j,gamma} curve."""
    eta, lo, hi, n = _wjg_window(j, gamma)
    return invert_cf_curve(lambda t: cf_Wjgamma(j, gamma, t),
                           lambda phi, t: _double_wjg(eta, phi, t), lo, hi, n)


def wgamma_cdf_curve(gamma: float, hi: float = 24576.0) -> CdfCurve:
    """Cached CDF curve of the untrimmed limit W_gamma.

    The law is heavy on the right (tail ~ 1/x), so the window runs far out
    and evaluation clamps to 1 beyond it; the clamp error is P{W > hi}.  The
    tail is spiky (a big-jump bump of mass 2^-k near every 2^k/gamma), and the
    FFT wraps whatever lies beyond the edge back into the window, so the edge
    is snapped to the quiet zone sqrt(2) 2^k/gamma between bumps; the wrapped
    remainder then lands far from the bulk.  The cache keeps the
    _WG_CACHE_SIZE most recently read curves.  gamma must lie in [1/2, 1]
    and hi be positive and finite, else ValueError.
    """
    _check_merging_gamma(gamma)
    if not 0.0 < hi < math.inf:
        raise ValueError(f"hi must be positive and finite, got {hi}")
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
_WEIGHT_TOL = 1e-10  # levels with p_j below this are left out
_LOG_FACT = np.array([math.lgamma(m + 1.0) for m in range(1, _R_TERMS + 1)])
_SEGMENT_CACHE_SIZE = 64


def _collapse_cut(gamma: float, x_hi):
    # components with eta_s >= (range + 40) look identical below x_hi up to
    # the explicit no-big-jump factor, so curves above s are never built;
    # ceil(log2(need)), exactly, is the binary exponent of the float below it
    return np.frexp(np.nextafter(gamma * (x_hi + 104.0), 0.0))[1] + 1


class _TermTable(NamedTuple):
    # one entry per term, in ascending jj, so the terms of one curve are adjacent
    jj: np.ndarray  # index j of the conditional curve W_{j,gamma}
    shifts: np.ndarray
    weights: np.ndarray
    skipped: float  # mixture weight of the terms left out
    deficit: float  # weight the collapse factors take off above the window


def _term_table(gamma: float, star: bool, s_cut: int) -> _TermTable:
    # terms p_j r_j(m) for the level j of the maximum and its Poisson count m;
    # conditional curve j-1, shifted by (m-1) 2^j/gamma (m 2^j/gamma untrimmed).
    # Levels come in ascending j, so jj ascends: only the levels past the
    # collapse cut share a curve, and they come last
    m = np.arange(1, _R_TERMS + 1)
    levels = []  # (jj, shifts, weights) of each level
    nominal = []  # p_j r_j(m) of every kept term, before any collapse factor
    used = 0.0
    for j in range(-8, 64):
        pj = p_weight(j, gamma)
        if pj < _WEIGHT_TOL:
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
        levels.append((np.full(shifts.size, jj), shifts, pj * rw[keep] * factor))
        nominal.append(pj * rw[keep])
        used += pj
    jj, shifts, weights = (np.concatenate(f) for f in zip(*levels))
    kept = math.fsum(np.concatenate(nominal))
    return _TermTable(jj, shifts, weights, max(0.0, 1.0 - kept), kept - math.fsum(weights))


@functools.lru_cache(maxsize=_SEGMENT_CACHE_SIZE)
def _segment(gamma: float, star: bool, cut: int, far: bool) -> CdfCurve:
    """The mixture of one collapse cut on the lattice x_i = i h, as a curve
    with one error per node interval.

    h is 2^-6/gamma on the bulk segment (the cut of x = 64, and every x
    below) and doubles with each cut above, which covers only its own x
    range, and once more on the far segment (the top cut above x = 4096, up
    to the lattice node at or past the cut curve's window top).  Every shift
    the segment reads is a whole number of steps: each curve is resampled
    once (value and slope from the Hermite kernel) and each term adds one
    weighted slice, or its weight, through one cumulative sum, at the nodes
    right of its window.  The error adds the weight the table leaves out,
    each curve's error times its weight, and the largest gap, over the 64
    intervals on either side, between the Hermite value at a midpoint and
    the cubic through the four nearest nodes; on the far segment it is one
    constant that also holds the collapse deficit and 1 - G*(far end).
    """
    table = _term_table(gamma, star, cut)
    # the largest curve first, so the peak memory of its build comes before
    # the smaller curves are held
    curves = {jj: wjg_cdf_curve(jj, gamma) for jj in sorted(set(table.jj.tolist()), reverse=True)}
    bulk = int(_collapse_cut(gamma, 64.0))
    h = math.ldexp(1.0, cut - bulk + far - 6) / gamma
    top = {jj: c.x0 + c.dx * (len(c.cdf) - 1) for jj, c in curves.items()}
    first = np.array([curves[jj].x0 for jj in table.jj]) + table.shifts
    last = np.array([top[jj] for jj in table.jj]) + table.shifts
    # the x whose cut is cut: (2^(cut-2)/gamma - 104, 2^(cut-1)/gamma - 104]
    x_lo, x_hi = (math.ldexp(1.0, cut + d) / gamma - 104.0 for d in (-2, -1))
    if cut == bulk:
        x_lo = float(first.min())
    x_lo, x_hi = (_COLLAPSE_X_MAX, top[cut]) if far else (x_lo, min(x_hi, _COLLAPSE_X_MAX))
    i0 = math.floor(x_lo / h) - 1
    n = math.ceil(x_hi / h) + 2 - i0
    cdf, density, rise = np.zeros(n), np.zeros(n), np.zeros(n + 1)
    rise[0] = table.weights[last <= i0 * h].sum()
    live = (last > i0 * h) & (first < (i0 + n - 1) * h)
    steps = table.shifts[live] / h
    shift = np.rint(steps)
    assert np.all(np.abs(steps - shift) < 1e-6), "a mixture shift is off the lattice"
    # the terms of one curve and shift (the collapsed levels' m = 1) add up first
    pairs, slot = np.unique(np.stack([table.jj[live], shift.astype(np.int64)]), axis=1,
                            return_inverse=True)
    weights = np.bincount(slot.ravel(), table.weights[live])
    for jj in dict.fromkeys(pairs[0].tolist()):
        c = curves[jj]
        mine = pairs[0] == jj
        s = pairs[1][mine]
        # lattice indices q where the curve is read, and q_one, from which on it reads 1
        q_one = math.floor(top[jj] / h) + 1
        qa = max(math.floor(c.x0 / h), i0 - int(s.max()))
        qb = min(q_one, i0 + n - 1 - int(s.min()))
        f, g = _hermite(h * np.arange(qa, qb + 1), c.x0, c.dx, len(c.cdf), c.cdf, c.density)
        for st, w in zip(s.tolist(), weights[mine].tolist()):
            a = qa - i0 + st  # the node that reads f[0]
            lo, hi = max(a, 0), min(a + f.size, n)
            if lo < hi:
                cdf[lo:hi] += w * f[lo - a : hi - a]
                density[lo:hi] += w * g[lo - a : hi - a]
            if qb == q_one:
                rise[min(max(qb + 1 - i0 + st, 0), n)] += w
    cdf += np.cumsum(rise[:n])
    f0, f1 = cdf[1:-2], cdf[2:-1]
    gap = np.abs(0.5 * (f0 + f1) + 0.125 * h * (density[1:-2] - density[2:-1])
                 - (9.0 * (f0 + f1) - cdf[:-3] - cdf[3:]) / 16.0)
    interp = np.pad(gap, 65, mode="edge")
    # interp[i] = max(gap[i - 64 : i + 65]): each pass widens the window by w
    for w in (1, 1, 2, 4, 8, 16, 32, 64):
        interp = np.maximum(interp[:-w], interp[w:])
    parts = table.skipped + math.fsum(float(table.weights[table.jj == jj].sum()) * c.error
                                      for jj, c in curves.items())
    error = parts + interp
    if far:  # node n - 2 is the far end
        error = np.full(n - 1, error.max() + table.deficit + 1.0 - cdf[-2])
    return CdfCurve(i0 * h, h, cdf, density, error)


def _by_segment(gamma: float, x, star: bool, read: Callable, at_inf: float):
    """read(segment, points) at each finite point of x, from the segment of
    its own cut, _collapse_cut(gamma, x within [64, 4096]), or the far one
    above 4096, capped at the segment's end; at_inf at +inf, 0 at -inf."""
    _check_merging_gamma(gamma)
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(xs).any():
        raise ValueError("x must not be nan")
    key = 2 * _collapse_cut(gamma, np.minimum(np.maximum(xs, 64.0), _COLLAPSE_X_MAX))
    key += xs > _COLLAPSE_X_MAX
    finite = np.isfinite(xs)
    out = np.where(xs == np.inf, at_inf, 0.0)
    keys = sorted(set(key[finite].tolist()), reverse=True)  # the cut with most curves first
    for k in keys:
        where = finite & (key == k) if len(keys) > 1 else finite
        segment = _segment(float(gamma), star, k >> 1, bool(k & 1))
        # a segment ends at node n - 2, past every x of its cut but the far one's
        end = segment.x0 + segment.dx * (len(segment.cdf) - 2)
        out[where] = read(segment, np.minimum(xs[where], end))
    return float(out[0]) if scalar else out


def _error_at(segment: CdfCurve, x: np.ndarray) -> np.ndarray:
    # the error of the node interval that holds each x
    pos = np.floor((x - segment.x0) / segment.dx)
    return segment.error[np.clip(pos, 0, len(segment.cdf) - 2).astype(np.int64)]


def gstar_cdf(gamma: float, x):
    """CDF of the trimmed merging limit: the double mixture of conditional
    curves G_{j-1} shifted by (m-1) 2^j/gamma with weights p_j r_j(m).

    x reads the term table of its own collapse cut (x within [64, 4096])
    off that cut's cached lattice segment, so a value depends on (gamma, x)
    alone: a scalar and any grid through x give the same bits.  G* reads
    flat beyond the far end, the top of the top cut curve's window.
    gstar_cdf_error gives the matching error estimate.  Exactly 0 at -inf
    and 1 at +inf; nan raises ValueError.
    """
    return _by_segment(gamma, x, True, CdfCurve.eval, 1.0)


def gstar_cdf_error(gamma: float, x):
    """Error estimate of gstar_cdf(gamma, x) at each x.

    The sum of the mixture weight the term table of x's cut leaves out
    (skipped levels, count tails, negligible terms), the ``error`` of each
    conditional curve it reads times that curve's mixture weight, and the
    interpolation error of x's segment near x.  Above x = 4096 it is one
    constant, which adds the weight the collapse factors take off and
    1 - G* at the far end.  0 at +-inf, where G* is exact.
    """
    return _by_segment(gamma, x, True, _error_at, 0.0)


def gmix_cdf(gamma: float, x):
    """Untrimmed limit CDF assembled from the same mixture (shifts m 2^j/gamma),
    read the same way as gstar_cdf; cross-checks the direct cf_Wgamma
    inversion."""
    return _by_segment(gamma, x, False, CdfCurve.eval, 1.0)


# ---------------------------------------------------------------------------
# the series representation Y_{r,gamma}


_PSI_ROWS = 4096  # rows of one sub-block of exponential gaps in the series sampler


def _psi_over_arg(vals: np.ndarray, gamma: float) -> np.ndarray:
    # Psi(v/gamma)/v = 2^-floor(log2(v/gamma))/gamma, exact dyadic scaling
    e = np.frexp(vals / gamma)[1]
    return np.ldexp(1.0 / gamma, 1 - e)


def sample_Y(
    r: int,
    gamma: float,
    truncation: int = 10_000,
    reps: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Seeded draws of the truncated series sum_{k=r+1}^N (Psi(Z_k/gamma)/Z_k
    - Psi(k/gamma)/k) with Z_k the unit Poisson arrival times.

    The first 64 arrivals are simulated exactly; later arrivals are added per
    dyadic block of the arrival axis: within a block the summand is the
    constant 2^-m/gamma, so only the Poisson count per block matters, and
    truncation keeps the earliest arrivals by taking blocks in order.  This
    turns 10^4 terms into ~10 counts.  The exact arrivals are drawn in
    sub-blocks of _PSI_ROWS rows, so at most 4096 x 64 gaps are held at once;
    a seed block's Poisson counts come after all its gaps.  The output is
    allocated before any draw; reps that numpy cannot allocate raise
    ValueError naming reps.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if truncation < r + 1:
        raise ValueError("truncation must be >= r + 1")
    blocks = seed_blocks(seed, reps)  # validates seed and reps
    try:
        out = np.empty(reps)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"reps = {reps} draws cannot be allocated: {exc}") from None
    center = series_center(r, gamma, truncation)
    pos = 0
    for rng, rows in blocks:
        out[pos : pos + rows] = _sample_chunk_block(r, gamma, truncation, rows, rng)
        pos += rows
    return out - center


def _sample_chunk_block(r, gamma, truncation, b, rng):
    k0 = min(truncation, max(64, r + 1))
    s = np.empty(b)
    t_lo = np.empty(b)
    # the gaps come in row sub-blocks, each reduced to its rows' sums and last
    # arrivals; numpy fills standard_exponential((b, k0)) row-major, so the
    # stream is the same as one draw of the whole block
    for a in range(0, b, _PSI_ROWS):
        z = rng.standard_exponential((min(_PSI_ROWS, b - a), k0))
        np.cumsum(z, axis=1, out=z)
        s[a : a + _PSI_ROWS] = _psi_over_arg(z[:, r:], gamma).sum(axis=1)
        t_lo[a : a + _PSI_ROWS] = z[:, -1]
    rem = truncation - k0
    if rem == 0:
        return s
    remaining = np.full(b, rem, dtype=np.int64)
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


def _wgamma_tail_bound(gamma: float, y: float) -> float:
    """P{W_gamma > y} <= 1/eta + exp(-chernoff_h(y - log2 eta)/eta), eta =
    2^j/gamma <= y: W_gamma is W_{j,gamma} plus the independent atoms above
    eta, of total rate 1/eta, and W_{j,gamma} - log2(eta) is centered with
    jumps <= eta and variance 2 eta (Bennett).  The better of j = fl - 1, fl
    (fl = floor(log2(gamma y))) is within about twice the Levy tail."""
    fl = floor_log2(gamma * y)
    return min(math.ldexp(gamma, -j)
               + math.exp(-chernoff_h(y - j + math.log2(gamma)) * math.ldexp(gamma, -j))
               for j in (fl - 1, fl))


def y_tail_parts(r: int, gamma: float, x: float) -> dict:
    """Pieces of the trimmed-limit tail asymptote at x: leading term, the two
    inner probabilities (ell = 0, 1) of Y_{0,gamma} + A_{r,gamma} exceeding
    x(1 - 2^(ell - {log2(gamma x)})), the assembled bracket, value and error.

    Y_{0,gamma} = W_gamma - xi(gamma) in law, so the inner terms are read off
    the W_gamma curve.  Both have the Levy atoms x_i = 2^i/gamma of mass
    1/x_i; cut at arrival gamma 2^M, the series subtracts M + 1 - 1/gamma +
    f(gamma) + o(1) (centering_closed), while cf_Wgamma subtracts
    sum_{i>-M} 1/(1 + x_i^2) = M + u_gamma + o(1) and adds u_gamma -
    log2(gamma), a difference of 1/gamma - 1 - f + log2(gamma) = -xi
    (xi_and_f).  Y_{r,2 gamma} is Y_{r,gamma} term by term, so gamma is
    reduced to (1/2, 1].

    error = leading (s - 1)(e0 + e1/s), s = 2^(r+1), e_ell the curve error,
    plus _wgamma_tail_bound in e0 where inner0 passes the window top and reads
    0 (x above about twice the top).  The tail the FFT folds back near the
    top (6e-5 at gamma = 1) is not in the curve error.
    """
    if not 0 <= r < 1023:
        raise ValueError(f"r must lie in [0, 1022], got {r}")
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    gx = gamma * x
    if gx < 2.0:
        raise ValueError("need gamma * x >= 2")
    fl = floor_log2(gx)  # refuses a non-finite x before any curve is built
    g = math.frexp(gamma)[0]
    g = 1.0 if g == 0.5 else g
    curve = wgamma_cdf_curve(g)
    # psi(gx)/x = gamma 2^-fl: the power of x never forms, so nothing overflows
    try:
        leading = math.ldexp(gamma ** (r + 1) / math.factorial(r + 1), -(r + 1) * fl)
    except OverflowError:  # (r + 1)! is past the float range: round the exact ratio once
        from fractions import Fraction

        leading = float(Fraction(gamma) ** (r + 1) / (math.factorial(r + 1) << ((r + 1) * fl)))
    # W_gamma > x(1 - 2^(ell - frac)) - A + xi; x - 2^(fl + ell)/gamma is halved
    # and doubled exactly so that 2^(fl + ell) cannot overflow near the float max
    shift = xi_and_f(g)[0] - a_const(r, gamma)
    ws = [2.0 * (0.5 * x - math.ldexp(1.0 / gamma, fl + ell - 1)) + shift for ell in (0, 1)]
    inner0, inner1 = (1.0 - curve.eval(ws)).tolist()
    e0 = e1 = curve.error
    if ws[0] >= curve.x0 + curve.dx * (len(curve.cdf) - 1):
        e0 += _wgamma_tail_bound(g, ws[0])
    scale = float(1 << (r + 1))
    bracket = 1.0 / scale + (scale - 1.0) * (inner0 + inner1 / scale)
    return {
        "leading": leading,
        "inner0": inner0,
        "inner1": inner1,
        "bracket": bracket,
        "value": leading * bracket,
        "error": leading * (scale - 1.0) * (e0 + e1 / scale),
    }
