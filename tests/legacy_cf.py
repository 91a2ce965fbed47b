"""The full-grid CF atom sums and all-k FFT inversion the odd-grid curves
replaced, and the two-sin atom kernel the one-sin ladder replaced, kept as
test oracles.

``legacy_cf_Wgamma`` and ``legacy_log_cf_f_atoms`` sum every dyadic atom
through ``sin`` up to a fixed truncation; ``legacy_invert_cf_curve`` evaluates
the CF at every point of the t-grid.  They take only ``CdfCurve``,
``InversionError`` and the location constant ``u_gamma_const`` from the package.

``two_sin_cf_Wgamma`` and ``two_sin_log_cf_f`` are ``cf_Wgamma`` and the atom
backend of ``log_cf_f`` with the kernel that took ``sin(t x / 2)`` and
``sin(t x)`` of every atom apart; everything around the kernel (atom cut,
closed small-atom tail, drift) is the package's own, so the two must agree
bit for bit.
"""

import math

import numpy as np

from petersburg.limitlaw import (_TAIL_CUT, CdfCurve, InversionError, _small_atom_tail,
                                 _wgamma_drift, u_gamma_const)
from petersburg.stpdist import floor_log2

__all__ = ["legacy_cf_Wgamma", "legacy_cf_Wjgamma", "legacy_log_cf_f_atoms",
           "legacy_invert_cf_curve", "two_sin_cf_Wgamma", "two_sin_log_cf_f"]


def _two_sin_atom_sum(t, x, comp):
    # sum_i (e^(i t x_i) - 1 - i t comp_i)/x_i, two sines per (t, atom) pair
    out = np.empty(t.shape, dtype=complex)
    masses = 1.0 / x
    step = 16384
    for a in range(0, t.size, step):
        ts = t[a : a + step]
        z = np.multiply.outer(ts, x)
        out[a : a + step].real = (-2.0 * np.square(np.sin(0.5 * z))) @ masses
        out[a : a + step].imag = (np.sin(z) - np.multiply.outer(ts, comp)) @ masses
    return out


def two_sin_log_cf_f(eta, t):
    """log f_eta(t) by atoms, array or scalar t, through the two-sin kernel."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float).reshape(-1)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    d_cut = max(0, math.ceil(math.log2(tmax * eta / _TAIL_CUT))) if tmax > 0.0 else 0
    x = eta * np.ldexp(1.0, -np.arange(d_cut))
    out = _two_sin_atom_sum(t, x, x) + _small_atom_tail(t, math.ldexp(eta, -d_cut))
    return complex(out[0]) if scalar else out


def two_sin_cf_Wgamma(gamma, t):
    """cf_Wgamma through the two-sin kernel."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    i_high = 56
    i_cut = i_high if tmax == 0.0 else min(i_high, floor_log2(gamma * _TAIL_CUT / tmax))
    x = np.ldexp(1.0, np.arange(i_cut + 1, i_high + 1)) / gamma
    log_phi = (_two_sin_atom_sum(t, x, x / (1.0 + x * x))
               + _small_atom_tail(t, math.ldexp(1.0, i_cut) / gamma)
               + 1j * t * _wgamma_drift(gamma, i_cut))
    out = np.exp(log_phi)
    return complex(out[0]) if scalar else out


def legacy_log_cf_f_atoms(eta, t):
    # sum_{d>=0} (2^d/eta)(e^(i t eta 2^-d) - 1 - i t eta 2^-d); remainder of
    # the dropped d > D terms is below t^2 eta 2^-D
    t = np.asarray(t, dtype=float)
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    D = 2 + max(0, math.ceil(math.log2(max(tmax * tmax * eta, 1e-280)) + 54))
    D = min(D, 1100)
    d = np.arange(D + 1)
    w = np.ldexp(1.0, d) / eta  # 2^d/eta
    locs = eta * np.ldexp(1.0, -d)
    out = np.empty(t.shape, dtype=complex)
    step = 32768  # bounds the outer-product workspace
    flat = t.reshape(-1)
    of = out.reshape(-1)
    for a in range(0, flat.size, step):
        z = np.multiply.outer(flat[a : a + step], locs)
        real = -2.0 * np.square(np.sin(0.5 * z))
        imag = np.sin(z) - z
        of[a : a + step] = (real + 1j * imag) @ w
    return out


def legacy_cf_Wjgamma(j, gamma, t):
    eta = math.ldexp(1.0, j) / gamma
    t = np.asarray(t, dtype=float)
    return np.exp(1j * t * math.log2(eta) + legacy_log_cf_f_atoms(eta, t))


def legacy_cf_Wgamma(gamma, t):
    """CF of W_gamma: shift s_gamma + u_gamma plus the two-sided dyadic atom
    series with the 1/(1+x^2) compensator, every atom through sin."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    bits = max(0, math.ceil(math.log2(1.0 + tmax)))
    i_high = 60 + bits  # large atoms: term mass ~ gamma 2^-i
    i_low = -(64 + 2 * bits)  # small atoms: term ~ t^2 2^i / gamma
    i = np.arange(i_low, i_high + 1)
    x = np.ldexp(1.0, i) / gamma  # dyadic Levy atoms 2^i/gamma
    masses = gamma * np.ldexp(1.0, -i)  # with masses gamma 2^-i
    shift = -math.log2(gamma) + u_gamma_const(gamma)
    comp = x / (1.0 + x * x)
    out = np.empty(t.shape, dtype=complex)
    step = 65536
    for a in range(0, t.size, step):
        ts = t[a : a + step]
        z = np.multiply.outer(ts, x)
        real = -2.0 * np.square(np.sin(0.5 * z))
        imag = np.sin(z) - np.multiply.outer(ts, comp)
        out[a : a + step] = np.exp((real + 1j * imag) @ masses + 1j * ts * shift)
    return complex(out[0]) if scalar else out


def legacy_invert_cf_curve(cf, lo, hi, n_points, max_points=1 << 21):
    """FFT inversion with the CF evaluated at every t-grid point."""
    width = hi - lo
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
    phi = np.asarray(cf(t), dtype=complex)
    a = phi * np.exp(-1j * t * lo)
    a[0] *= 0.5  # trapezoid endpoint
    g = (dt / math.pi) * np.real(np.fft.fft(a))
    dx = width / n
    neg = max(0.0, float(-g.min()))
    g = np.clip(g, 0.0, None)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (g[:-1] + g[1:])) * dx))
    gp = np.gradient(g, dx)
    cdf -= (dx * dx / 12.0) * (gp - gp[0])
    mass = float(cdf[-1])
    err = abs(1.0 - mass) + neg * width + float(top)
    cdf = np.minimum.accumulate(np.minimum(cdf / mass, 1.0)[::-1])[::-1]
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    stride = max(1, n >> 18)
    return CdfCurve(x0=lo, dx=dx * stride, cdf=cdf[::stride], density=g[::stride] / mass, error=err)
