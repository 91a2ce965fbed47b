"""Exact dyadic tail probabilities for partial and trimmed St. Petersburg sums.

Every probability here is an integer over a power of two, kept exact with
arbitrary-precision integers.  One DP answers both P{S_n > x} and
P{S_{n,r} > x}.  It walks the payoff levels from the top down, so its work
grows with log2 x, not with x.  All payoff levels above the query threshold
pool into one "big" atom: a kept big payoff pushes the (trimmed) sum past the
threshold no matter its actual level, so the pooled state is exact.  Inputs
are bounded by n <= 32 and x < 2^1024.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement

from petersburg.stpdist import CLASSICAL, GameParams, floor_log2

__all__ = [
    "DyadicProb",
    "sum_tail_exact",
    "trimmed_tail_exact",
    "two_sum_tail_closed",
    "enum_oracle",
    "conv_ratio_curve",
    "oscillation_curve_fig2",
    "dyadic_grid",
]

class DyadicProb:
    """Probability num / 2^log2_den in canonical form (num odd, or zero with den 1)."""

    __slots__ = ("num", "log2_den")

    def __init__(self, num: int, log2_den: int):
        if num < 0:
            raise ValueError("negative probability")
        if log2_den < 0:
            raise ValueError("log2_den must be >= 0")
        if num == 0:
            log2_den = 0
        else:
            # strip shared powers of two
            tz = (num & -num).bit_length() - 1
            sh = min(tz, log2_den)
            num >>= sh
            log2_den -= sh
        if num > (1 << log2_den):
            raise ValueError("probability exceeds 1")
        self.num = num
        self.log2_den = log2_den

    @classmethod
    def zero(cls) -> "DyadicProb":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "DyadicProb":
        return cls(1, 0)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DyadicProb":
        den = fr.denominator
        if den & (den - 1):
            raise ValueError("denominator is not a power of two")
        return cls(fr.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, 1 << self.log2_den)

    def __float__(self) -> float:
        # correctly rounded int true division, as float(self.as_fraction())
        return self.num / (1 << self.log2_den)

    def complement(self) -> "DyadicProb":
        return DyadicProb((1 << self.log2_den) - self.num, self.log2_den)

    def __add__(self, other):
        e = max(self.log2_den, other.log2_den)
        return DyadicProb(
            (self.num << (e - self.log2_den)) + (other.num << (e - other.log2_den)), e
        )

    def __sub__(self, other):
        e = max(self.log2_den, other.log2_den)
        return DyadicProb(
            (self.num << (e - self.log2_den)) - (other.num << (e - other.log2_den)), e
        )

    def __mul__(self, other):
        return DyadicProb(self.num * other.num, self.log2_den + other.log2_den)

    def _cross(self, other):
        return self.num << other.log2_den, other.num << self.log2_den

    def __eq__(self, other):
        if not isinstance(other, DyadicProb):
            return NotImplemented
        return self.num == other.num and self.log2_den == other.log2_den

    def __lt__(self, other):
        a, b = self._cross(other)
        return a < b

    def __le__(self, other):
        a, b = self._cross(other)
        return a <= b

    def __hash__(self):
        return hash((self.num, self.log2_den))

    def __repr__(self):
        return f"DyadicProb({self.num}/2^{self.log2_den})"

    def to_json(self) -> dict:
        # numerators routinely exceed 2^53, so they travel as strings
        return {"num": str(self.num), "log2_den": self.log2_den}

    @classmethod
    def from_json(cls, obj: dict) -> "DyadicProb":
        return cls(int(obj["num"]), int(obj["log2_den"]))


_N_MAX = 32
# the float range the asymptotics work in; x = 2^1024 already overflows a float
_X_LIMIT = 1 << 1024


def _floor_x(x) -> int:
    """floor(x) as an int; x must be a number below 2^1024."""
    try:
        x = math.floor(x)
    except (OverflowError, ValueError):  # inf, nan
        x = _X_LIMIT
    if x >= _X_LIMIT:
        raise ValueError("x must be a number below 2^1024")
    return x


def sum_tail_exact(n: int, x) -> DyadicProb:
    """P{S_n > x} for the classical game, exact; only floor(x) matters."""
    if not 1 <= n <= _N_MAX:
        raise ValueError(f"n must lie in 1..{_N_MAX}")
    return _tail(n, 0, _floor_x(x))


def trimmed_tail_exact(n: int, r: int, x) -> DyadicProb:
    """P{S_{n,r} > x}: tail of the partial sum with the r largest payoffs removed."""
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if n > _N_MAX:
        raise ValueError(f"n must lie in 1..{_N_MAX}")
    return _tail(n, r, _floor_x(x))


# Queries repeat (sweeps and tables revisit the same lattice points, and many
# x share one largest attainable sum below them), so a bounded memo keyed on
# the floored x answers them again at lookup cost.
@functools.lru_cache(maxsize=1 << 14)
def _tail(n: int, r: int, x: int) -> DyadicProb:
    """P{S_{n,r} > x} for integer x, walking payoff levels top down.

    A state (m items left, t trims left, q) carries q = floor((x - kept sum) /
    2^(k+1)) before level k; placing c items at level k keeps c - min(t, c) of
    them (trims go to the largest payoffs first) and moves q to
    2q + bit_k(x) - kept.  q < 0 means the kept sum already exceeds x: the
    path is absorbed, with every unplaced item free below level k.  Once
    2q >= m - t the remaining kept payoffs (each <= 2^(k-1)) cannot exceed
    the budget, so the path is dropped.  Every level above L = floor(log2 x)
    pays more than x; they enter as one pooled level L+1 of mass 2^-L.  A
    state's weight is an integer over 2^(placed items * L).
    """
    if x < 2 * (n - r):
        return DyadicProb.one()  # n-r kept payoffs, each >= 2
    # S_{n,r} is a sum of n - r powers of two >= 2: even, with at most n - r
    # set bits.  It takes no value in (s, x] for the largest such s <= x.
    s = x & ~1
    while s.bit_count() > n - r:
        s &= s - 1
    if s != x:
        return _tail(n, r, s)
    L = x.bit_length() - 1
    comb = math.comb
    over = 0  # numerator over 2^(nL)
    states = {(n, r, 0): 1}
    for k in range(L + 1, 0, -1):
        sh = max(L - k, 0)  # one item's mass at level k is 2^sh over 2^L
        bit = x >> k & 1
        absorbed = [0] * (n + 1)  # by items left unplaced
        new: dict = {}
        # q2 falls as c grows, so every c from the first absorbed one c* on is
        # absorbed too; states share that tail through their (m, c*) group
        groups: dict = {}
        for (m, t, q), num in states.items():
            for c in range(m + 1) if k > 1 else (m,):
                trims = min(t, c)
                m2, t2 = m - c, t - trims
                q2 = 2 * q + bit - (c - trims)
                if q2 < 0:
                    groups[m, c] = groups.get((m, c), 0) + num
                    break
                if 2 * q2 < m2 - t2:
                    key = (m2, t2, q2)
                    new[key] = new.get(key, 0) + ((num * comb(m, c)) << (sh * c))
        for (m, c_star), num in groups.items():
            for c in range(c_star, m + 1):
                absorbed[m - c] += (num * comb(m, c)) << (sh * c)
        states = new
        # an unplaced item lies below level k with mass 1 - 2^-(k-1), over 2^L;
        # Horner in that mass keeps the big products to one per item count
        free = ((1 << (k - 1)) - 1) << (L + 1 - k)
        acc = 0
        for a in reversed(absorbed):
            acc = acc * free + a
        over += acc
    return DyadicProb(over, n * L)


def two_sum_tail_closed(k: int, ell: int) -> DyadicProb:
    """P{X1 + X2 > 2^k + 2^ell} for 1 <= k <= ell, in closed form.

    Distinct exponents give 2*2^-ell + 2*2^-(ell+k) - 4*2^-2ell; the equal
    case collapses to 2*2^-ell - 2^-2ell.
    """
    if not (1 <= k <= ell):
        raise ValueError("need 1 <= k <= ell")
    if k == ell:
        num = (1 << (ell + 1)) - 1
    else:
        num = (1 << (ell + 1)) + (1 << (ell - k + 1)) - 4
    return DyadicProb(num, 2 * ell)


def enum_oracle(n: int, r: int, x, params: GameParams = CLASSICAL):
    """Small-n cross-check by multiset enumeration over payoff levels.

    Levels high enough that every payoff above them exceeds x are pooled into
    one atom, so the enumeration stays exact.  Classical input returns a
    DyadicProb; generalized input returns a float (exact rational arithmetic
    when alpha == 1, careful float summation otherwise).
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if n > 5:
        raise ValueError("enumeration is meant for n <= 5")
    if x < 0:
        raise ValueError("x must be >= 0")
    from fractions import Fraction

    if params.is_classical:
        xf = math.floor(x)
        kmax = max(int(xf).bit_length(), 1)
        payoffs = [Fraction(2) ** k for k in range(1, kmax + 1)]
        probs = [Fraction(1, 2**k) for k in range(1, kmax + 1)]
        payoffs.append(Fraction(2) ** (kmax + 1))
        probs.append(Fraction(1, 2**kmax))
        total = _enum_multisets(n, r, Fraction(xf), payoffs, probs)
        return DyadicProb.from_fraction(total)

    exact_rational = params.alpha == 1.0
    if exact_rational:
        q = Fraction(params.q)
        pv = 1 - q
        xv = Fraction(x)
        pay = lambda k: q**-k
    else:
        q = params.q
        pv = params.p
        xv = float(x)
        pay = params.payoff
    kmax = 1
    while pay(kmax + 1) <= xv:
        kmax += 1
    payoffs = [pay(k) for k in range(1, kmax + 2)]
    probs = [q ** (k - 1) * pv for k in range(1, kmax + 1)]
    probs.append(q**kmax)  # pooled tail mass of levels > kmax
    total = _enum_multisets(n, r, xv, payoffs, probs)
    return float(total)


def _enum_multisets(n, r, x, payoffs, probs):
    fact = math.factorial
    total = 0
    m = len(payoffs)
    for combo in combinations_with_replacement(range(m), n):
        vals = sorted((payoffs[i] for i in combo), reverse=True)
        if sum(vals[r:]) > x:
            weight = fact(n)
            pr = 1
            prev, run = None, 0
            for i in combo:
                pr *= probs[i]
                if i == prev:
                    run += 1
                else:
                    weight //= fact(run)
                    prev, run = i, 1
            weight //= fact(run)
            total += weight * pr
    return total


def conv_ratio_curve(xs) -> list:
    """(x, P{S_2 > x} / P{X > x}) pairs; the ratio oscillates between 2 and 4.

    The ratio is formed in exact rational arithmetic before the final float.
    """
    from fractions import Fraction

    out = []
    for x in xs:
        if x < 2:
            raise ValueError("ratio curve needs x >= 2")
        num = sum_tail_exact(2, x).as_fraction()
        den = Fraction(1, 1 << floor_log2(float(x)))
        out.append((float(x), float(num / den)))
    return out


def oscillation_curve_fig2(
    n: int = 16,
    m_lo: int = 4,
    m_hi: int = 14,
    per_octave: int = 32,
) -> list:
    """Rows (x, x*P{S_n > x}) on a log-uniform integer grid, exact backend.

    Every octave includes its endpoints 2^m and 2^(m+1)-1 so the drop across
    each power of two is visible in the output.
    """
    xs = set()
    for m in range(m_lo, m_hi):
        base = 1 << m
        xs.update({base, 2 * base - 1})
        xs.update(int(round(base * 2.0 ** (i / per_octave))) for i in range(per_octave))
    rows = []
    for x in sorted(xs):
        p = float(sum_tail_exact(n, x))
        rows.append((float(x), x * p))
    return rows


def dyadic_grid(m0: int, m1: int, per_octave: int) -> list:
    """Geometric grid 2^(m + i/per_octave) covering octaves m0..m1; its top
    point 2^m1 must be a float, so m1 >= 1024 raises ValueError."""
    if m1 < m0 or per_octave < 1:
        raise ValueError("need m1 >= m0 and per_octave >= 1")
    if m1 >= 1024:  # 2^1024 = _X_LIMIT is past the float range
        raise ValueError(f"the octave 2^{m1} lies past the float range: need m1 <= 1023")
    xs = [
        math.ldexp(2.0 ** (i / per_octave), m)
        for m in range(m0, m1)
        for i in range(per_octave)
    ]
    xs.append(math.ldexp(1.0, m1))
    return xs
