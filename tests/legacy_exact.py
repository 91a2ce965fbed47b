"""The two exact engines the level DP replaced, kept as test oracles.

``capped_sum_table`` is the capped convolution table behind the old
``sum_tail_exact`` (time and memory linear in the cap); ``sparse_trimmed_tails``
is the old ``trimmed_tail_exact`` DP over (items left, trims left, partial sum).
Both return exact ``Fraction`` values and share no code with the package.
"""

from fractions import Fraction
from math import comb

__all__ = ["CappedTable", "capped_sum_table", "sparse_trimmed_tails"]

_OVER = -1  # partial sum known to exceed the cap


class CappedTable:
    """Law of S_n on {0..cap}: masses[s] = P{S_n = s} and the pooled
    overflow P{S_n > cap}, all integer numerators over 2^log2_den."""

    def __init__(self, n, cap, log2_den, masses, overflow):
        self.n, self.cap, self.log2_den = n, cap, log2_den
        self.masses, self.overflow = masses, overflow

    def total_is_one(self) -> bool:
        return sum(self.masses) + self.overflow == 1 << self.log2_den

    def mass(self, s: int) -> Fraction:
        return Fraction(self.masses[s], 1 << self.log2_den)

    def overflow_prob(self) -> Fraction:
        return Fraction(self.overflow, 1 << self.log2_den)

    def tail(self, x: int) -> Fraction:
        """P{S_n > x} for 0 <= x <= cap."""
        return Fraction(self.overflow + sum(self.masses[x + 1 :]), 1 << self.log2_den)


def capped_sum_table(n: int, cap: int) -> CappedTable:
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
            new[v:] = [a + (b << sh) for a, b in zip(new[v:], src)]
            newover += sum(masses[cap + 1 - v :]) << sh
        masses = new
        overflow = newover
    return CappedTable(n, cap, n * dg, masses, overflow)


def sparse_trimmed_tails(n: int, r: int, cap: int) -> list:
    """[P{S_{n,r} > s} for s = 0..cap], cap >= 2.

    Levels go from the largest down, so trims are consumed greedily.  State
    weights are (numerator, exponent) pairs.  One run at threshold cap leaves
    the exact law of every kept sum up to cap in its final states.
    """
    L = cap.bit_length() - 1  # levels > L exceed cap and are pooled
    states = {(n, r, 0): (1, 0)}

    def push(acc, key, num, e):
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
    new = {}
    for (m, t, s), (num, e) in states.items():
        for c in range(m + 1):
            trims = min(t, c)
            push(new, (m - c, t - trims, _OVER if c > trims else s), num * comb(m, c), e + L * c)
    states = new

    for k in range(L, 0, -1):
        v = 1 << k
        new = {}
        for (m, t, s), (num, e) in states.items():
            if m == 0:
                push(new, (m, t, s), num, e)
                continue
            for c in range(m + 1) if k > 1 else (m,):
                trims = min(t, c)
                s2 = s if s == _OVER else s + (c - trims) * v
                if s2 > cap:
                    s2 = _OVER
                push(new, (m - c, t - trims, s2), num * comb(m, c), e + k * c)
        states = new

    law = {}  # kept sum (or _OVER) -> probability
    for (m, _t, s), (num, e) in states.items():
        assert m == 0
        law[s] = law.get(s, 0) + Fraction(num, 1 << e)
    out, acc = [0] * (cap + 1), law.get(_OVER, 0)
    for s in range(cap, -1, -1):
        out[s] = acc
        acc += law.get(s, 0)
    return out
