"""Exact dyadic tail probabilities for partial and trimmed St. Petersburg sums.

Every probability here is an integer over a power of two, kept exact with
arbitrary-precision integers.  The convolution and DP engines pool all payoff
levels above the query threshold into one "big" atom: a kept big payoff pushes
the (trimmed) sum past the threshold no matter its actual level, so the pooled
state is exact, and the level grid stays logarithmic in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from petersburg.stpdist import CLASSICAL, GameParams, floor_log2

__all__ = [
    "DyadicProb",
    "CappedTailTable",
    "DEFAULT_CAP_GUARD",
    "sum_tail_exact",
    "trimmed_tail_exact",
    "two_sum_tail_closed",
    "enum_oracle",
    "conv_ratio_curve",
    "dyadic_grid",
]

DEFAULT_CAP_GUARD = 1 << 20


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
        return Fraction(self.num, 1 << self.log2_den)

    def __float__(self) -> float:
        return float(self.as_fraction())

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


@dataclass
class CappedTailTable:
    """Exact law of S_n on {0..cap} plus the pooled overflow mass P{S_n > cap}.

    masses[s] and overflow are integer numerators over 2^log2_den; masses[s]
    is the true P{S_n = s} for s <= cap because any payoff above cap lands the
    whole sum in the overflow bucket.
    """

    n: int
    cap: int
    log2_den: int
    masses: list = field(repr=False)
    overflow: int = 0
    _tails: list = field(default=None, repr=False)

    def _tail_nums(self):
        if self._tails is None:
            tails = [0] * (self.cap + 1)
            acc = self.overflow
            for s in range(self.cap, -1, -1):
                tails[s] = acc
                acc += self.masses[s]
            self._tails = tails
        return self._tails

    def tail(self, x) -> DyadicProb:
        """P{S_n > x}; x may be real, only floor(x) matters (S_n is integer)."""
        s = math.floor(x)
        if s < 0:
            return DyadicProb.one()
        if s > self.cap:
            raise ValueError(f"x={x} exceeds table cap {self.cap}")
        return DyadicProb(self._tail_nums()[s], self.log2_den)

    def mass(self, s: int) -> DyadicProb:
        if not (0 <= s <= self.cap):
            raise ValueError("s out of range")
        return DyadicProb(self.masses[s], self.log2_den)

    def overflow_prob(self) -> DyadicProb:
        return DyadicProb(self.overflow, self.log2_den)

    def total_is_one(self) -> bool:
        return sum(self.masses) + self.overflow == 1 << self.log2_den


def _build_table(n: int, cap: int) -> CappedTailTable:
    # one game: explicit levels 1..K-1 (payoff 2^k <= cap), pool level >= K
    K = cap.bit_length()  # 2^(K-1) <= cap < 2^K
    dg = K - 1  # per-game denominator exponent
    masses = [0] * (cap + 1)
    masses[0] = 1
    overflow = 0
    for _ in range(n):
        new = [0] * (cap + 1)
        # previous overflow stays overflowed whatever the next payoff adds
        newover = overflow << dg
        # pool (level >= K, mass 2^-dg) sends any current state to overflow
        newover += sum(masses)
        for k in range(1, K):
            v = 1 << k
            sh = dg - k
            src = masses[: cap + 1 - v]
            if sh:
                new[v:] = [a + (b << sh) for a, b in zip(new[v:], src)]
            else:
                new[v:] = [a + b for a, b in zip(new[v:], src)]
            ov = sum(masses[cap + 1 - v :])
            newover += ov << sh
        masses = new
        overflow = newover
    return CappedTailTable(n=n, cap=cap, log2_den=n * dg, masses=masses, overflow=overflow)


_TABLE_CACHE: dict = {}


def sum_table(n: int, cap: int) -> CappedTailTable:
    """Cached exact table covering sums up to cap (rounded up to a power of two)."""
    if n < 1 or n > 32:
        raise ValueError("n must lie in 1..32")
    cap = max(cap, 2 * n, 8)
    cached = _TABLE_CACHE.get(n)
    if cached is not None and cached.cap >= cap:
        return cached
    cap = 1 << (cap - 1).bit_length()  # round up: reuse across nearby queries
    table = _build_table(n, cap)
    _TABLE_CACHE[n] = table
    return table


def sum_tail_exact(n: int, x, cap_guard: int = DEFAULT_CAP_GUARD) -> DyadicProb:
    """P{S_n > x} for the classical game, exact.

    Work and memory grow linearly in x (capped atom table), so queries are
    guarded: raise rather than silently grind past cap_guard.
    """
    if n < 1 or n > 32:
        raise ValueError("n must lie in 1..32")
    x = math.floor(x)
    if x < 2 * n:
        return DyadicProb.one()  # every payoff is >= 2
    if x > cap_guard:
        raise ValueError(f"x={x} exceeds cap_guard={cap_guard}; raise the guard explicitly")
    return sum_table(n, x).tail(x)


# DP states are (remaining_items, trims_left, partial_sum) with partial_sum = -1
# once the kept sum is known to exceed the threshold.
_OVER = -1


def trimmed_tail_exact(n: int, r: int, x, cap_guard: int = DEFAULT_CAP_GUARD) -> DyadicProb:
    """P{S_{n,r} > x}: tail of the partial sum with the r largest payoffs removed.

    Processes levels from the largest down, so trims are consumed greedily,
    which matches removing the r largest order statistics.  State weights are
    (numerator, exponent) pairs; only the result is wrapped in DyadicProb.
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if n > 32:
        raise ValueError("n must lie in 1..32")
    x = math.floor(x)
    if x < 2 * (n - r):
        return DyadicProb.one()  # n-r kept payoffs, each >= 2
    if x > cap_guard:
        raise ValueError(f"x={x} exceeds cap_guard={cap_guard}; raise the guard explicitly")
    L = floor_log2(x)  # levels > L exceed x and are pooled

    states: dict = {(n, r, 0): (1, 0)}
    comb = math.comb

    def _push(acc, key, num, e):
        cur = acc.get(key)
        if cur is None:
            acc[key] = (num, e)
        else:
            cn, ce = cur
            if ce < e:
                acc[key] = ((cn << (e - ce)) + num, e)
            else:
                acc[key] = (cn + (num << (ce - e)), ce)

    # pooled big level: mass 2^-L per item, any kept one overshoots
    new: dict = {}
    for (m, t, s), (num, e) in states.items():
        for c in range(m + 1):
            trims = min(t, c)
            key = (m - c, t - trims, _OVER if c > trims else s)
            _push(new, key, num * comb(m, c), e + L * c)
    states = new

    for k in range(L, 0, -1):
        v = 1 << k
        new = {}
        for (m, t, s), (num, e) in states.items():
            if m == 0:
                _push(new, (m, t, s), num, e)
                continue
            for c in (range(m + 1) if k > 1 else (m,)):
                trims = min(t, c)
                kept = c - trims
                if s == _OVER:
                    s2 = _OVER
                else:
                    s2 = s + kept * v
                    if s2 > x:
                        s2 = _OVER
                key = (m - c, t - trims, s2)
                _push(new, key, num * comb(m, c), e + k * c)
        states = new

    result = DyadicProb.zero()
    for (m, _t, s), (num, e) in states.items():
        assert m == 0
        if s == _OVER:
            result = result + DyadicProb(num, e)
    return result


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


def enum_oracle(n: int, r: int, x, max_level: int = None, params: GameParams = CLASSICAL):
    """Small-n cross-check by multiset enumeration over payoff levels.

    Levels above max_level are pooled into one atom whose payoff exceeds x, so
    the default cutoff makes the enumeration exact.  Classical input returns a
    DyadicProb; generalized input returns a float (exact rational arithmetic
    when alpha == 1, careful float summation otherwise).
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if n > 5:
        raise ValueError("enumeration is meant for n <= 5")
    if x < 0:
        raise ValueError("x must be >= 0")

    if params.is_classical:
        xf = math.floor(x)
        kmax = max_level if max_level is not None else max(int(xf).bit_length(), 1)
        payoffs = [Fraction(2) ** k for k in range(1, kmax + 1)]
        probs = [Fraction(1, 2**k) for k in range(1, kmax + 1)]
        payoffs.append(Fraction(2) ** (kmax + 1))
        probs.append(Fraction(1, 2**kmax))
        if payoffs[-1] <= xf:
            raise ValueError(f"max_level={kmax} pools levels that do not exceed x={x}")
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
    if max_level is None:
        kmax = 1
        while pay(kmax + 1) <= xv:
            kmax += 1
    else:
        kmax = max_level
        if pay(kmax + 1) <= xv:
            raise ValueError(f"max_level={kmax} pools levels that do not exceed x={x}")
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


def conv_ratio_curve(xs, cap_guard: int = DEFAULT_CAP_GUARD) -> list:
    """(x, P{S_2 > x} / P{X > x}) pairs; the ratio oscillates between 2 and 4.

    The ratio is formed in exact rational arithmetic before the final float.
    """
    out = []
    for x in xs:
        if x < 2:
            raise ValueError("ratio curve needs x >= 2")
        num = sum_tail_exact(2, x, cap_guard).as_fraction()
        den = Fraction(1, 1 << floor_log2(float(x)))
        out.append((float(x), float(num / den)))
    return out


def dyadic_grid(m0: int, m1: int, per_octave: int) -> list:
    """Geometric grid 2^(m + i/per_octave) covering octaves m0..m1."""
    if m1 < m0 or per_octave < 1:
        raise ValueError("need m1 >= m0 and per_octave >= 1")
    xs = [
        math.ldexp(2.0 ** (i / per_octave), m)
        for m in range(m0, m1)
        for i in range(per_octave)
    ]
    xs.append(math.ldexp(1.0, m1))
    return xs
