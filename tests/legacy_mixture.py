"""The per-term G* mixture loop the term table replaced, kept as a test oracle.

``legacy_mixture_cdf`` sums p_j r_j(m) times a shifted conditional curve one
(j, m) term at a time, with one ``r_weight`` call and one ``legacy_curve_eval``
per term, in increasing j then m.  It reads the curves through the package's
``wjg_cdf_curve`` and shares no other code with the term table.
``legacy_curve_eval`` is ``CdfCurve.eval`` as it was before the mixture and
the curves shared one Hermite kernel.  The collapse cut is the caller's: levels
above it read the cut's curve times the probability of no big jump.
"""

import math

import numpy as np

from petersburg.limitlaw import p_weight, r_weight, wjg_cdf_curve

__all__ = ["legacy_curve_eval", "legacy_mixture_cdf"]


def legacy_curve_eval(curve, x):
    """Cubic Hermite between the curve's nodes; 0 and 1 outside its window."""
    n = len(curve.cdf)
    x = np.asarray(x, dtype=float)
    x = np.minimum(np.maximum(x, curve.x0 - curve.dx), curve.x0 + n * curve.dx)
    pos = (x - curve.x0) / curve.dx
    i = np.minimum(np.maximum(np.floor(pos).astype(np.int64), 0), n - 2)
    t = pos - i
    f0, f1 = curve.cdf[i], curve.cdf[i + 1]
    g0, g1 = curve.density[i] * curve.dx, curve.density[i + 1] * curve.dx
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


def legacy_mixture_cdf(gamma, xs, star, s_cut, weight_tol=1e-10):
    """G* (star=True) or the untrimmed mixture (star=False) at finite xs,
    with every level above s_cut collapsed onto W_{s_cut,gamma}."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    finite_hi = float(xs.max()) if xs.size else 0.0
    acc = np.zeros_like(xs)
    used = 0.0
    for j in range(-8, 64):
        pj = p_weight(j, gamma)
        if pj < weight_tol:
            if j > 4 and used > 1.0 - 1e-9:
                break
            continue
        jj = j - 1
        if jj > s_cut:
            curve = wjg_cdf_curve(s_cut, gamma)
            factor = math.exp(-gamma * (math.ldexp(1.0, -s_cut) - math.ldexp(1.0, -jj)))
        else:
            curve = wjg_cdf_curve(jj, gamma)
            factor = 1.0
        step = math.ldexp(1.0, j) / gamma
        cum = 0.0
        m = 1
        while cum < 1.0 - 1e-12 and m < 400:
            rw = r_weight(j, gamma, m)
            cum += rw
            shift = (m - 1) * step if star else m * step
            if rw * factor > 1e-15:
                if finite_hi - shift >= curve.x0:
                    acc += (pj * rw * factor) * legacy_curve_eval(curve, xs - shift)
            m += 1
        used += pj
    return acc
