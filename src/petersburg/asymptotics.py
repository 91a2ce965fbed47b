"""Closed-form tail asymptotics for partial and trimmed St. Petersburg sums.

The r-trimmed sum of n games has tail

    P{S_{n,r} > x} ~ C(n,r+1) * psi(x)^(r+1) / x^(r+1)
                     * (1 + (2^(r+1)-1) * P{S_{n-r-1} > x - 2^floor(log2 x)})

as x grows, where psi is the doubling-periodic mantissa function.  The inner
threshold x*(1 - 2^-{log2 x}) equals x - 2^floor(log2 x) exactly, and the
subtraction is exact in floats (Sterbenz), so the inner probability never
suffers the boundary rounding that plagues the log-space form at x = 3*2^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from petersburg.stpdist import CLASSICAL, GameParams, floor_log2, frac_log2
from petersburg.exact import enum_oracle, sum_tail_exact, trimmed_tail_exact

__all__ = [
    "TailAsymptote",
    "snr_tail_rhs",
    "finer_as_rhs",
    "subexp_limits",
    "gen_snr_tail_rhs",
    "uniform_bound_rhs",
    "ratio_table",
]


@dataclass(frozen=True)
class TailAsymptote:
    """Leading power term and the bracket correction, kept separate.

    value = leading * correction; correction always lies in [1, 2^(r+1)].
    inner_backend records how the inner probability was computed: "exact",
    or "none" when the inner sum is empty.
    """

    leading: float
    correction: float
    inner_prob: float
    inner_backend: str

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
    if c <= 1.0:
        raise ValueError("c must be > 1")
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


def gen_snr_tail_rhs(
    n: int,
    r: int,
    x,
    params: GameParams = CLASSICAL,
    mc_reps: int = 400_000,
    mc_seed=0,
) -> float:
    """Trimmed-sum tail asymptote for the generalized (alpha, p) game.

    Reduces exactly to snr_tail_rhs for the classical parameters.  The inner
    probability P{S_{n-r-1} > x(1 - q^{frac/alpha})} comes from the exact
    engine (classical), the small-n enumeration, or, for non-classical games
    with n - r - 1 > 5, Monte Carlo, which no exact engine replaces there.
    """
    if params.is_classical:
        return snr_tail_rhs(n, r, x).value
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    x = float(x)
    if x < params.payoff(1):
        raise ValueError("x must be at least the smallest payoff")
    q, alpha = params.q, params.alpha
    from petersburg.stpdist import _floor_frac_log_general

    _fl, frac = _floor_frac_log_general(x, params)
    leading = math.comb(n, r + 1) * q ** (-(r + 1) * frac) / x ** ((r + 1) * alpha)
    m = n - r - 1
    if m == 0:
        inner = 0.0
    else:
        threshold = x * (1.0 - q ** (frac / alpha))
        if m <= 5:
            inner = float(enum_oracle(m, 0, threshold, params=params))
        else:
            from petersburg.montecarlo import SimPlan, simulate_trimmed

            emp = simulate_trimmed(SimPlan(n=m, r=0, reps=mc_reps, master_seed=mc_seed), params)
            inner = float(emp.tail(threshold))
    bracket = 1.0 + (q ** (-(r + 1)) - 1.0) * inner
    return leading * bracket


def uniform_bound_rhs(n: int, r: int, x: float, delta: float, C: float) -> float:
    """Upper bound for P{S_{n,r}/n - a_n > x}, uniform over n.

    Two power terms: the trimmed-tail rate ((1-delta)x)^-(r+1) and a
    delta-penalized x^-(r+3/2) remainder whose constant C is user-supplied
    (only its existence is guaranteed; see the calibration helper).
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


def ratio_table(n: int, r: int, xs) -> list:
    """Rows (x, frac_log2, exact, asymptote, ratio, backend) over an x-grid."""
    rows = []
    for x in xs:
        asym = snr_tail_rhs(n, r, x)
        ex = float(trimmed_tail_exact(n, r, x))
        rows.append(
            (
                float(x),
                frac_log2(x),
                ex,
                asym.value,
                ex / asym.value if asym.value else math.inf,
                asym.inner_backend,
            )
        )
    return rows
