"""St. Petersburg game distribution: exact cdf/tail/quantile, truncation, sampling,
and the closed-form constants of the limit theory built from them.

The classical game doubles a 1-unit stake on every tail before the first head,
so the payoff is 2^K with P{K = k} = 2^-k.  The generalized game pays q^(-k/alpha)
with P{K = k} = q^(k-1) * p, q = 1 - p; alpha = 1, p = 1/2 recovers the classical
game.  Everything here that touches the classical game goes through the float
exponent field (frexp/ldexp, or the raw bits when sampling), so dyadic
quantities come out exact, not rounded.

The centering a_{n,gamma}, the constant A_{r,gamma}, the digit constant
xi(gamma) and the Chernoff exponent are scalar sums of psi-type terms and
live here rather than in limitlaw, which re-exports them.  Only the samplers
use numpy, and they import it when called: the exact and closed-form
subcommands of the CLI never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GameParams",
    "CLASSICAL",
    "floor_log2",
    "frac_log2",
    "psi",
    "cdf",
    "tail",
    "quantile",
    "gamma_n",
    "truncated_cdf",
    "truncated_moment",
    "sample",
    "sample_levels",
    "sample_truncated_levels",
    "sample_payoffs",
    "sample_truncated_payoffs",
    "SEED_BLOCK",
    "seed_blocks",
    "InversionError",
    "series_center",
    "a_const",
    "centering",
    "centering_closed",
    "xi_and_f",
    "chernoff_h",
    "chernoff_bound",
]

_LOG_SNAP = 1e-12  # relative snap when a log-derived index sits on an integer
SEED_BLOCK = 65536  # replicates per seed block; fixed so draws never depend on batching


@dataclass(frozen=True)
class GameParams:
    """Tail exponent alpha in (0, 2) and success probability p in (0, 1)."""

    alpha: float = 1.0
    p: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0 and self.p == 0.5

    def payoff(self, k: int) -> float:
        """Payoff of level k >= 1."""
        if self.is_classical:
            return math.ldexp(1.0, k)
        return self.q ** (-k / self.alpha)

    def level_prob(self, k: int) -> float:
        """P{K = k} = q^(k-1) * p."""
        return self.q ** (k - 1) * self.p


CLASSICAL = GameParams(1.0, 0.5)


def floor_log2(x) -> int:
    """floor(log2 x) for x > 0, exact via the exponent field."""
    if isinstance(x, int):
        if x <= 0:
            raise ValueError("x must be positive")
        return x.bit_length() - 1
    if x <= 0 or math.isinf(x) or math.isnan(x):
        raise ValueError("x must be positive and finite")
    return math.frexp(x)[1] - 1


def psi(x) -> float:
    """2^{log2 x} with the fractional part taken in [0, 1): psi(2^m) = 1.

    Multiplicatively periodic modulo doubling, equals x * 2^-floor(log2 x);
    exact for every float because it only rescales the mantissa.
    """
    if isinstance(x, int):
        x = float(x)
    if x <= 0 or math.isinf(x) or math.isnan(x):
        raise ValueError("x must be positive and finite")
    return 2.0 * math.frexp(x)[0]


def frac_log2(x) -> float:
    """Fractional part of log2 x in [0, 1), exactly 0 at powers of two."""
    return math.log2(psi(x))


def _floor_frac_log_general(x: float, params: GameParams) -> tuple[int, float]:
    # floor and fractional part of log_{1/q}(x^alpha), with snapping so that
    # grid points q^(-k/alpha) land on integer index despite float logs.
    t = params.alpha * math.log(x) / -math.log(params.q)
    r = round(t)
    if abs(t - r) <= _LOG_SNAP * max(1.0, abs(t)):
        t = float(r)
    fl = math.floor(t)
    return fl, t - fl


def tail(x, params: GameParams = CLASSICAL) -> float:
    """P{X > x}.  Equals 1 below the smallest payoff; dyadic-exact classically."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if params.is_classical:
        if x < 2.0:
            return 1.0
        # 2^-floor(log2 x) = psi(x)/x
        return math.ldexp(1.0, -floor_log2(x))
    if x < params.payoff(1):
        return 1.0
    fl, _ = _floor_frac_log_general(x, params)
    return params.q**fl


def cdf(x, params: GameParams = CLASSICAL) -> float:
    """P{X <= x} = 1 - tail(x)."""
    return 1.0 - tail(x, params)


def quantile(s: float, params: GameParams = CLASSICAL) -> float:
    """Generalized inverse of the cdf: smallest payoff x with cdf(x) >= s.

    Always a payoff q^(-k/alpha); the classical value is 2^ceil(-log2(1-s)),
    with quantile(0) = 2.
    """
    if not (0.0 <= s < 1.0):
        raise ValueError(f"s must lie in [0, 1), got {s}")
    if params.is_classical:
        # smallest k with 1 - 2^-k >= s; ceil(-log2(1-s)) = 1 - e exactly,
        # where 1-s = m * 2^e with m in [1/2, 1)
        e = math.frexp(1.0 - s)[1]
        return math.ldexp(1.0, max(1 - e, 1))
    if s == 0.0:
        return params.payoff(1)
    t = math.log1p(-s) / math.log(params.q)
    r = round(t)
    if abs(t - r) <= _LOG_SNAP * max(1.0, abs(t)):
        t = float(r)
    return params.payoff(max(1, math.ceil(t)))


def gamma_n(n: int) -> float:
    """n / 2^ceil(log2 n), the position of n inside its dyadic octave, in (1/2, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = (n - 1).bit_length()  # ceil(log2 n) for n >= 1
    return math.ldexp(float(n), -k)


def truncated_cdf(x, k: int) -> float:
    """Cdf of the game truncated at level k: levels > k removed, mass renormalized."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = float(x)
    if x < 2.0:
        return 0.0
    j = min(floor_log2(x), k)
    # P{X <= 2^j} / P{X <= 2^k}, both dyadic
    return (1.0 - math.ldexp(1.0, -j)) / (1.0 - math.ldexp(1.0, -k))


def truncated_moment(ell: int, k: int) -> float:
    """E[X^ell] under the level-k truncated classical game.

    ell = 1 gives k / (1 - 2^-k); for ell >= 2 the level sum is geometric with
    ratio 2^(ell-1).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    norm = 1.0 - math.ldexp(1.0, -k)
    if ell == 1:
        return k / norm
    r = math.ldexp(1.0, ell - 1)
    return r / norm * (r**k - 1.0) / (r - 1.0)


def seed_blocks(seed, reps: int, row_len: int = 1):
    """Yield (rng, rows) over reps replicates in replicate order.

    Block i covers replicates [i*SEED_BLOCK, (i+1)*SEED_BLOCK) and draws from
    the i-th child of SeedSequence(seed), so replicate j depends on (seed, j)
    alone, never on reps or batching.  A block comes in sub-blocks of at most
    2^16 // row_len rows, so a body drawing row_len values per replicate holds
    2^16 draws (512 KB per float64 array) at once, which stays in cache.  A
    body that consumes its rng in row order draws the same stream whatever
    the sub-block size.  sample_Y (row_len = 1) does not: its Poisson counts
    are drawn level by level across a sub-block's rows, so its draws depend
    on the sub-block, which the cap keeps at the whole 65536-row block, and
    its prefix promise holds only in whole blocks.  The cap therefore must
    not go below 2^16.
    """
    import numpy as np

    sub = max(1, min(SEED_BLOCK, (1 << 16) // row_len))
    children = np.random.SeedSequence(seed).spawn((reps + SEED_BLOCK - 1) // SEED_BLOCK)
    for i, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        b = min(SEED_BLOCK, reps - i * SEED_BLOCK)
        for done in range(0, b, sub):
            yield rng, min(sub, b - done)


_EXPONENT_MASK = 0x7FF << 52
_PAYOFF_BIAS = 2046 << 52


def _exponent_payoffs(v: np.ndarray) -> np.ndarray:
    """Overwrite v in (0, 1] with the payoff 2^K, K = min{k : v > 2^-k}.

    With E the biased exponent of v, K = 1023 - E, or 1024 - E when v is an
    exact power of two, so the payoff's bits are (2046 << 52) - (E << 52),
    plus 1 << 52 at powers of two.  Subtracting 1 from bits(v) lowers the
    exponent field by one exactly when the mantissa is zero, which folds that
    correction in: bits(2^K) = (2046 << 52) - ((bits(v) - 1) & exponent mask).
    Three in-place integer passes; the result is exact for every normal v.
    """
    import numpy as np

    b = v.view(np.uint64)
    np.subtract(b, 1, out=b)
    np.bitwise_and(b, _EXPONENT_MASK, out=b)
    np.subtract(_PAYOFF_BIAS, b, out=b)
    return v


def payoff_levels(pay: np.ndarray) -> np.ndarray:
    """Overwrite classical payoffs 2^K with K (int64), read off the exponent field."""
    import numpy as np

    b = pay.view(np.uint64)
    np.right_shift(b, 52, out=b)
    k = b.view(np.int64)
    np.subtract(k, 1023, out=k)
    return k


def sample_payoffs(count, rng: np.random.Generator, params: GameParams = CLASSICAL) -> np.ndarray:
    """Draw payoffs (float64), one per uniform U of rng.random.

    Classical payoffs are the exact powers 2^K, K = min{k : 1 - U > 2^-k},
    written straight into the exponent field of 1 - U; generalized ones are
    q^(-K/alpha) with K from sample_levels.
    """
    import numpy as np

    if not params.is_classical:
        return np.power(params.q, -sample_levels(count, rng, params) / params.alpha)
    v = rng.random(count)
    np.subtract(1.0, v, out=v)  # v in (0, 1]
    return _exponent_payoffs(v)


def sample_truncated_payoffs(k: int, count, rng: np.random.Generator) -> np.ndarray:
    """Classical payoffs conditioned on K <= k: v = 1 - U (1 - 2^-k), read off
    by the same exponent kernel.  v lies in (2^-k, 1] for k >= 2; at k = 1 the
    largest U, 1 - 2^-53, would round 1 - U/2 to 1/2 (level 2), so k = 1, whose
    law is the single payoff 2, fills the draws with 2 after consuming them."""
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    v = rng.random(count)
    if k == 1:
        v.fill(2.0)
        return v
    np.multiply(v, 1.0 - math.ldexp(1.0, -k), out=v)
    np.subtract(1.0, v, out=v)
    return _exponent_payoffs(v)


def sample_levels(count, rng: np.random.Generator, params: GameParams = CLASSICAL) -> np.ndarray:
    """Draw level indices K (int64).  Classical atoms are exact: the level is read
    off the binary exponent of 1-U rather than a log transform."""
    import numpy as np

    if params.is_classical:
        return payoff_levels(sample_payoffs(count, rng))
    v = 1.0 - rng.random(count)  # v in (0, 1]
    k = np.ceil(np.log(v) / math.log(params.q))
    return np.maximum(k, 1.0).astype(np.int64)


def sample_truncated_levels(k: int, count, rng: np.random.Generator) -> np.ndarray:
    """Classical levels conditioned on K <= k, atom-exact via the same exponent kernel."""
    return payoff_levels(sample_truncated_payoffs(k, count, rng))


def sample(params: GameParams, count: int, seed) -> np.ndarray:
    """Seeded i.i.d. payoff draws."""
    import numpy as np

    if count < 0:
        raise ValueError("count must be >= 0")
    return sample_payoffs(count, np.random.default_rng(seed), params)


# ---------------------------------------------------------------------------
# closed-form constants of the limit theory


class InversionError(RuntimeError):
    """CF inversion could not meet its accuracy or grid-size budget."""


def series_center(r: int, gamma: float, truncation: int) -> float:
    """sum_{k=r+1}^N Psi(k/gamma)/k, the deterministic compensator.

    The summand is 2^(1-e)/gamma with e the binary exponent of k/gamma, so it
    is constant on dyadic blocks of k.  Each block's end is found by bisection
    on that same float expression, the block sums are added exactly and the
    total is rounded once: the result equals fsum over the terms, in work
    logarithmic in N.
    """
    inv = 1.0 / gamma
    total = Fraction(0)
    k = r + 1
    while k <= truncation:
        e = math.frexp(k / gamma)[1]
        end = truncation
        if math.frexp(end / gamma)[1] != e:
            lo, hi = k, end  # lo lies in the block, hi past it
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if math.frexp(mid / gamma)[1] == e:
                    lo = mid
                else:
                    hi = mid
            end = lo
        total += (end - k + 1) * Fraction(math.ldexp(inv, 1 - e))
        k = end + 1
    return float(total)


def a_const(r: int, gamma: float) -> float:
    """A_{r,gamma} = sum_{k=1}^r Psi(k/gamma)/k (empty sum for r = 0)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return 0.0
    return series_center(0, gamma, r)


def centering(n: int, gamma: float, r: int = 0) -> float:
    """a_{n,gamma}^(r) = sum_{j=r+1}^n Psi(j/gamma)/j; exact dyadic terms."""
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    return series_center(r, gamma, n)


def centering_closed(n: int, gamma: float) -> float:
    """Closed form of the untrimmed centering: with m_n = floor(log2((n+1)/gamma)),
    (n+1)/(gamma 2^m_n) - 1/gamma + sum_{m=1}^{m_n} ceil(gamma 2^m)/(gamma 2^m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    m_n = floor_log2((n + 1) / gamma)
    terms = [(n + 1) / math.ldexp(gamma, m_n) - 1.0 / gamma]
    for m in range(1, m_n + 1):
        g2m = math.ldexp(gamma, m)
        terms.append(math.ceil(g2m) / g2m)
    return math.fsum(terms)


def xi_and_f(gamma: float) -> tuple:
    """(xi, f) for gamma in (1/2, 1].

    xi(gamma) = 2 - (1/gamma) sum_k k eps_k 2^-k - log2(gamma), where eps are
    the binary digits of gamma in the representation with infinitely many 1's;
    floats are exactly dyadic, so the digit sum is evaluated in closed form
    after flipping the lowest set bit.  f(gamma) is its companion series
    sum_m (ceil(2^m gamma) - 2^m gamma)/(2^m gamma), a finite sum for dyadic
    gamma.  They satisfy f = xi + log2(gamma) - 1 + 1/gamma.
    """
    if not (0.5 < gamma <= 1.0):
        raise ValueError("gamma must lie in (1/2, 1]")
    g = Fraction(gamma)  # exact: floats are dyadic rationals
    if gamma == 1.0:
        digit_sum = Fraction(2)  # eps_k = 1 for all k: sum k 2^-k = 2
    else:
        den_bits = g.denominator.bit_length() - 1  # gamma = num / 2^den_bits
        num = g.numerator
        low = (num & -num).bit_length() - 1  # lowest set bit of the numerator
        t = den_bits - low  # digit index of the trailing 1 to flip
        # digits above t keep their value; digit t flips to 0; below t all 1
        head = sum(
            Fraction(k, 1 << k) for k in range(1, t) if (num >> (den_bits - k)) & 1
        )
        digit_sum = head + Fraction(t + 2, 1 << t)
    xi = float(2 - digit_sum / g) - math.log2(gamma)
    # f: terms vanish once 2^m gamma is an integer
    f_terms = []
    m = 1
    while True:
        g2m = g * (1 << m)
        if g2m.denominator == 1:
            break
        f_terms.append((math.ceil(g2m) - g2m) / g2m)
        m += 1
    f = float(sum(f_terms, start=Fraction(0)))
    return xi, f


def chernoff_h(x: float) -> float:
    """(2+x) ln(1+x/2) - x, the exponent of the conditional-limit tail bound;
    sandwiched between x^2/(4+x) and x^2/2, and infinite at x = inf."""
    if math.isnan(x):
        raise ValueError("x must not be nan")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == math.inf:
        return math.inf  # the formula would give inf - inf
    return (2.0 + x) * math.log1p(0.5 * x) - x


def chernoff_bound(n: int, j: int, gamma: float = None, x: float = 0.0) -> float:
    """exp(-h(x)/eta) with eta = 2^j/gamma; gamma defaults to gamma_n(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < 1 - (n - 1).bit_length():
        raise ValueError("j below the admissible conditioning range for this n")
    g = gamma_n(n) if gamma is None else gamma
    if g <= 0:
        raise ValueError("gamma must be > 0")
    eta = math.ldexp(1.0, j) / g
    return math.exp(-chernoff_h(x) / eta)
