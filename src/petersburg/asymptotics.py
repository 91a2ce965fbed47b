"""Closed-form tail asymptotics for partial and trimmed St. Petersburg sums.

The r-trimmed sum of n games has tail

    P{S_{n,r} > x} ~ C(n,r+1) * psi(x)^(r+1) / x^(r+1)
                     * (1 + (2^(r+1)-1) * P{S_{n-r-1} > x - 2^floor(log2 x)})

as x grows, where psi is the doubling-periodic mantissa function.  The inner
threshold x*(1 - 2^-{log2 x}) equals x - 2^floor(log2 x) exactly, and the
subtraction is exact in floats (Sterbenz), so the inner probability never
suffers the boundary rounding that plagues the log-space form at x = 3*2^m.
Classical inner probabilities are exact; generalized (alpha, p) ones come
from a deterministic grid engine that brackets them and reports the error.
"""

from __future__ import annotations

import math
from collections import namedtuple

from petersburg.stpdist import CLASSICAL, GameParams, _floor_frac_log_general, floor_log2, frac_log2
from petersburg.exact import sum_tail_exact, trimmed_tail_exact

__all__ = [
    "TailAsymptote",
    "snr_tail_rhs",
    "finer_as_rhs",
    "subexp_limits",
    "gen_snr_tail_rhs",
    "uniform_bound_rhs",
    "ratio_table",
]


class TailAsymptote(namedtuple("TailAsymptote", "leading correction inner_prob inner_backend error",
                                defaults=(0.0,))):
    """Leading power term and the bracket correction, kept separate.

    value = leading * correction, correction in [1, q^-(r+1)]; error bounds
    the absolute error of value.  inner_backend says how the inner probability
    was computed: "exact" (classical), "grid" (generalized) or "none" (no sum).
    A namedtuple rather than a frozen dataclass, so that importing this module
    loads no dataclasses (and with it inspect).
    """

    __slots__ = ()

    @property
    def value(self) -> float:
        return self.leading * self.correction


def _inner_sum_tail(m: int, threshold: float):
    """P{S_m > threshold} and its backend; m = 0 never exceeds."""
    if m == 0:
        return 0.0, "none"
    return float(sum_tail_exact(m, threshold)), "exact"


def snr_tail_rhs(n: int, r: int, x) -> TailAsymptote:
    """Asymptotic tail of the r-trimmed sum of n classical games at threshold x."""
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    x = float(x)
    if x < 2.0:
        raise ValueError("x must be >= 2")
    # psi(x)/x = 2^-floor(log2 x) exactly, so the power term is one ldexp and
    # cannot overflow however large x^(r+1) would be
    fl = floor_log2(x)
    leading = math.ldexp(math.comb(n, r + 1), -(r + 1) * fl)
    threshold = x - math.ldexp(1.0, fl)  # exact subtraction
    inner, backend = _inner_sum_tail(n - r - 1, threshold)
    correction = 1.0 + ((1 << (r + 1)) - 1) * inner
    return TailAsymptote(leading, correction, inner, backend)


def finer_as_rhs(n: int, r: int, m: int, c: float) -> float:
    """Tail approximation P{S_{n,r} > 2^m + c} for fixed c > 1 and large m.

    The fractional part of log2(2^m + c) vanishes in the limit, so the leading
    term freezes to 2^(-m(r+1)) C(n,r+1) and the bracket keeps plain P{S > c}.
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if not 1.0 < c < math.inf:
        raise ValueError(f"c must lie in (1, inf), got {c}")
    if m < 1:
        raise ValueError("m must be >= 1")
    inner, _backend = _inner_sum_tail(n - r - 1, c)
    bracket = 1.0 + ((1 << (r + 1)) - 1) * inner
    return math.ldexp(math.comb(n, r + 1) * bracket, -m * (r + 1))


def subexp_limits(params: GameParams = CLASSICAL) -> tuple:
    """(liminf, limsup) of P{X1 + X2 > x} / P{X > x}: exactly (2, 2/q).

    A subexponential law would have both equal 2; the defect 2/q > 2 is what
    the oscillating two-sum ratio swings up to.  q = 1 - p carries a rounding
    ulp for p like 1/3, so a ratio within 1e-12 of an integer is snapped, the
    same boundary convention the quantile uses.
    """
    limsup = 2.0 / params.q
    r = round(limsup)
    if r >= 2 and abs(limsup - r) <= 1e-12 * limsup:
        limsup = float(r)
    return 2.0, limsup


_GRID = 1 << 16  # cells of [0, t] in the generalized inner-sum engine


def _gen_sum_tail(m: int, t: float, params: GameParams) -> tuple:
    """P{S_m > t} for the sum of m generalized games, as (value, error).

    The law of the partial sums lives on the 2^16 + 1 cells of [0, t]; each
    of the m steps adds one payoff by a shifted add per occupied payoff cell
    and collects the mass that passes t (payoffs above t pass at once).
    Payoffs rounded down to their cells give a lower bound, rounded up an
    upper bound; value is the midpoint (at most 1) and error the half-gap.
    Exact rational indices never split a payoff on a cell edge, and summing
    mass as it passes, not as 1 minus the rest, keeps small tails accurate.
    """
    from fractions import Fraction

    import numpy as np

    cells, probs, k = [], [], 1
    while (v := params.payoff(k)) <= t:
        cells.append(Fraction(v) * _GRID / Fraction(t))
        probs.append(params.level_prob(k))
        k += 1
    beyond = params.q ** (k - 1)  # P{one payoff > t}
    bounds = []
    for rnd in (math.floor, math.ceil):
        pmf = np.bincount([rnd(c) for c in cells], weights=probs, minlength=_GRID + 1)
        occupied = np.flatnonzero(pmf)
        law = np.zeros(_GRID + 1)
        law[0] = 1.0
        passed = []
        for _ in range(m):
            top = np.concatenate(([0.0], np.cumsum(law[::-1])))  # top[c]: top c cells
            passed.append(beyond * top[-1])
            passed.extend(pmf[occupied] * top[occupied])
            new = np.zeros_like(law)
            for c in occupied:
                new[c:] += pmf[c] * law[: _GRID + 1 - c]
            law = new
        bounds.append(math.fsum(passed))
    lo, hi = bounds
    return min(1.0, 0.5 * (lo + hi)), 0.5 * (hi - lo)


def gen_snr_tail_rhs(n: int, r: int, x, params: GameParams = CLASSICAL) -> TailAsymptote:
    """Trimmed-sum tail asymptote for the generalized (alpha, p) game.

    Classical parameters return snr_tail_rhs itself.  Otherwise the inner
    probability P{S_{n-r-1} > x(1 - q^{frac/alpha})} comes from the grid
    engine, and error is leading * (q^-(r+1) - 1) times its half-gap, so
    value +- error holds the asymptote with the exact inner probability.
    """
    if params.is_classical:
        return snr_tail_rhs(n, r, x)
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    x = float(x)
    if x < params.payoff(1):
        raise ValueError("x must be at least the smallest payoff")
    q, alpha = params.q, params.alpha
    _fl, frac = _floor_frac_log_general(x, params)
    try:
        power = x ** ((r + 1) * alpha)
    except OverflowError:
        raise ValueError(f"x^((r + 1) alpha) is past the float range at x = {x}") from None
    leading = math.comb(n, r + 1) * q ** (-(r + 1) * frac) / power
    m = n - r - 1
    inner, half = _gen_sum_tail(m, x * (1.0 - q ** (frac / alpha)), params)
    weight = q ** (-(r + 1)) - 1.0
    return TailAsymptote(leading, 1.0 + weight * inner, inner, "grid" if m else "none",
                         leading * weight * half)


def uniform_bound_rhs(n: int, r: int, x: float, delta: float, C: float) -> float:
    """Upper bound for P{S_{n,r}/n - a_n > x}, uniform over n.

    Two power terms: the trimmed-tail rate ((1-delta)x)^-(r+1) and a
    delta-penalized x^-(r+3/2) remainder whose constant C is user-supplied
    (only its existence is guaranteed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if x < math.e:
        raise ValueError("bound is stated for x >= e")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    term1 = 2 ** (r + 1) / math.factorial(r + 1) / ((1.0 - delta) * x) ** (r + 1)
    term2 = C * delta ** (-(r + 1.5)) * x ** (-(r + 1.5))
    return term1 + term2


def _exact_ratio(n: int, r: int, x: float) -> Fraction:
    """P{S_{n,r} > x} over its asymptote, in exact rationals: the tail times
    2^((r+1) fl) over C(n, r+1) (1 + (2^(r+1) - 1) P{S_{n-r-1} > x - 2^fl}),
    fl = floor(log2 x), so neither side underflows however large x is."""
    from fractions import Fraction

    fl = floor_log2(x)
    m = n - r - 1
    inner = sum_tail_exact(m, x - math.ldexp(1.0, fl)).as_fraction() if m else 0
    tail = trimmed_tail_exact(n, r, x).as_fraction()
    return tail * (1 << (r + 1) * fl) / (math.comb(n, r + 1) * (1 + ((1 << (r + 1)) - 1) * inner))


def ratio_table(n: int, r: int, xs) -> list:
    """Rows (x, frac_log2, exact, asymptote, ratio, backend) over an x-grid;
    ratio is _exact_ratio rounded once, finite for every x below 2^1024."""
    rows = []
    for x in xs:
        asym = snr_tail_rhs(n, r, x)
        rows.append(
            (
                float(x),
                frac_log2(x),
                float(trimmed_tail_exact(n, r, x)),
                asym.value,
                float(_exact_ratio(n, r, float(x))),
                asym.inner_backend,
            )
        )
    return rows
