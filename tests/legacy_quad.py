"""The QUADPACK Gil-Pelaez inversion the Gauss-Legendre panel rule replaced,
kept as a test oracle.

``legacy_cdf_from_cf`` integrates the head in u = log t with ``quad`` over
octave panels and the tail [1, T] with QAWO (``weight="cos"``/``"sin"``), one
scalar cf call per distinct t.  It takes only ``InversionError`` and
``InvertedCdf`` from the package.
"""

import functools
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from petersburg.limitlaw import InversionError, InvertedCdf

__all__ = ["legacy_cdf_from_cf"]


def legacy_cdf_from_cf(cf, x: float, tol: float = 1e-10) -> InvertedCdf:
    """1/2 - (1/pi) int_0^inf Im(e^-itx cf)/t dt by QUADPACK; the upper limit
    T adapts until |cf(T)| < 1e-12.  cf takes a scalar t."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    # the head panels read Im and Re at each node, and the two QAWO passes
    # over [cut, T] visit the same nodes
    cf = functools.lru_cache(maxsize=None)(cf)
    T = 64.0
    while abs(cf(T)) > 1e-12:
        T *= 2.0
        if T > 131072.0:
            raise InversionError("cf does not decay; no usable truncation point")

    def im_part(t):
        return cf(t).imag / t if t != 0.0 else 0.0

    def re_part(t):
        return cf(t).real / t if t != 0.0 else 0.0

    # in the log substitution t = e^u the head becomes a smooth gently-periodic
    # integrand; [cut, T] goes to QAWO.  QUADPACK warnings are advisory; the
    # returned error bounds are what gets checked
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
