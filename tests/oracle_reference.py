"""Independent brute-force references for small-n tails and the Y series law.

Enumerates payoff-level vectors in {1..K, BIG}^n directly with Fraction
arithmetic.  Deliberately shares no code with the package: levels are raw
product tuples (no multiset/multinomial shortcut), probabilities and payoffs
are exact rationals.  Used to freeze fixture values for the fast engines.
The series sampler materializes every Poisson arrival, as a law oracle for
the block sampler behind ``limitlaw.sample_Y``.  ``frexp_levels`` is the
mantissa/exponent formula the classical samplers used before they read the
payoff off the raw exponent bits, kept as their oracle; ``FixedUniforms``
feeds those samplers chosen uniforms in place of a Generator.
"""

from fractions import Fraction
from itertools import product

import numpy as np

__all__ = ["classical_trimmed_tail", "general_trimmed_tail", "general_single_tail", "series_y_direct",
           "frexp_levels", "FixedUniforms"]


def classical_trimmed_tail(n: int, r: int, x: int) -> Fraction:
    """P{sum of payoffs with the r largest removed > x}, payoffs 2^K, P{K=k} = 2^-k.

    Levels above K_enum = bit_length(x) all exceed x, so they are pooled into a
    single BIG proxy level whose payoff already exceeds x; keeping any pooled
    level forces the trimmed sum past x, so the pooling is exact.
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    if x < 0:
        raise ValueError("x must be >= 0")
    k_enum = max(int(x).bit_length(), 1)  # 2^k_enum > x
    payoffs = [Fraction(2) ** k for k in range(1, k_enum + 1)]
    probs = [Fraction(1, 2**k) for k in range(1, k_enum + 1)]
    payoffs.append(Fraction(2) ** (k_enum + 1))  # BIG proxy, still > x
    probs.append(Fraction(1, 2**k_enum))  # total mass of levels > k_enum
    return _enumerate(n, r, Fraction(x), payoffs, probs)


def general_trimmed_tail(n: int, r: int, x, p) -> Fraction:
    """Same enumeration for the generalized game with alpha = 1 and success
    probability p: payoffs (1/q)^k, P{K=k} = q^(k-1) p, q = 1 - p.

    p may be a float; the float is converted exactly, so the result is the
    exact tail of the float-parameter law.
    """
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    p = Fraction(p)
    q = 1 - p
    x = Fraction(x)
    payoffs, probs = [], []
    k = 1
    while True:
        v = q**-k
        payoffs.append(v)
        probs.append(q ** (k - 1) * p)
        if v > x:
            break  # this level is already the BIG proxy
        k += 1
    # replace the last prob by the whole remaining tail mass q^(k-1)
    probs[-1] = q ** (k - 1)
    return _enumerate(n, r, x, payoffs, probs)


def general_single_tail(x, p) -> Fraction:
    """P{X > x} for one generalized payoff, alpha = 1, by direct pmf summation."""
    p = Fraction(p)
    q = 1 - p
    x = Fraction(x)
    k = 1
    while q**-k <= x:
        k += 1
    return q ** (k - 1)  # sum_{j >= k} q^(j-1) p


def series_y_direct(r: int, gamma: float, truncation: int, reps: int, rng) -> np.ndarray:
    """Draws of sum_{k=r+1}^N (Psi(Z_k/gamma)/Z_k - Psi(k/gamma)/k), N = truncation,
    with every unit Poisson arrival Z_k drawn; Psi(v/gamma)/v = 2^-floor(log2(v/gamma))/gamma.
    """

    def psi_over(v):
        return np.ldexp(1.0 / gamma, 1 - np.frexp(v / gamma)[1])

    center = psi_over(np.arange(r + 1, truncation + 1, dtype=float)).sum()
    out = np.empty(reps)
    rows = max(1, (1 << 22) // truncation)  # bounded memory
    for lo in range(0, reps, rows):
        z = np.cumsum(rng.standard_exponential((min(rows, reps - lo), truncation)), axis=1)
        out[lo : lo + rows] = psi_over(z[:, r:]).sum(axis=1) - center
    return out


def frexp_levels(v) -> np.ndarray:
    """K = min{k : v > 2^-k} for v in (0, 1], through frexp: v = m 2^e with m in
    [1/2, 1), so K = 1 - e, plus one when v is an exact power of two (m = 1/2)."""
    m, e = np.frexp(v)
    return (1 - e + (m == 0.5)).astype(np.int64)


class FixedUniforms:
    """Stands in for a Generator whose random() hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return self.u.reshape(shape).copy()


def _enumerate(n, r, x, payoffs, probs) -> Fraction:
    total = Fraction(0)
    m = len(payoffs)
    for vec in product(range(m), repeat=n):
        vals = sorted((payoffs[i] for i in vec), reverse=True)
        if sum(vals[r:]) > x:
            pr = Fraction(1)
            for i in vec:
                pr *= probs[i]
            total += pr
    return total


if __name__ == "__main__":
    import sys

    n, r, x = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    v = classical_trimmed_tail(n, r, x)
    print(f"P(n={n}, r={r}, x={x}) = {v} = {v.numerator}/2^{v.denominator.bit_length()-1} = {float(v)}")
