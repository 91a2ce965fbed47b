"""Seeded Monte Carlo for St. Petersburg sums.

Every sampler here draws through stpdist.seed_blocks, the one place where
(seed, block index) maps to a random stream: results depend only on the master
seed, never on worker count or batching, and each sub-block holds at most
2^16 payoff draws (512 KB per array), so a classical draw's few in-place
passes stay in cache and sampling adds a few MB to the process: 37 MB
resident after 8192 replicates at n = 4096, against 30 MB after import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from petersburg.limitlaw import gstar_cdf, wgamma_cdf_curve
from petersburg.stpdist import (
    CLASSICAL,
    GameParams,
    centering,
    chernoff_bound,
    gamma_n,
    payoff_levels,
    sample_payoffs,
    sample_truncated_payoffs,
    seed_blocks,
    truncated_moment,
)

__all__ = [
    "EmpiricalTail",
    "SimPlan",
    "simulate_trimmed",
    "merge_check",
    "trimmed_merge_check",
    "max_pmf_check",
    "chernoff_check",
    "histogram_fig1",
    "side_lobe_stats",
    "calibrate_uniform_bound_c",
]

@dataclass(frozen=True)
class SimPlan:
    """Replication plan for trimmed-sum simulation."""

    n: int
    r: int = 0
    reps: int = 100_000
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0 <= self.r < self.n):
            raise ValueError("need 0 <= r < n")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass
class EmpiricalTail:
    """Sorted sample with tail lookups and a conservative CI half-width."""

    samples: np.ndarray
    reps: int

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalTail":
        s = np.sort(np.asarray(samples, dtype=float))
        return cls(samples=s, reps=len(s))

    def tail(self, x) -> float:
        idx = np.searchsorted(self.samples, x, side="right")
        return float(self.reps - idx) / self.reps

    def ci_halfwidth(self, x) -> float:
        p = float(self.tail(x))
        return 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / self.reps) / self.reps)


_EXACT_SUM = 2.0**53  # classical row sums below this are exact integers


def _trim_by_partition(pay: np.ndarray, r: int) -> np.ndarray:
    n = pay.shape[1]
    return np.partition(pay, n - r - 1, axis=1)[:, : n - r].sum(axis=1)


def _draw_trimmed_sums(plan: SimPlan, params: GameParams = CLASSICAL) -> np.ndarray:
    """Raw trimmed-sum replicates: S_n minus its r largest payoffs.

    For the classical game with r = 1 this is the row sum minus the row max,
    exact while the sum is below 2^53; rows that reach it are summed by
    partition, as every other trimmed case is, so every row keeps the same
    bits whichever way it is computed.
    """
    n, r = plan.n, plan.r
    out = np.empty(plan.reps)
    pos = 0
    for rng, rows in seed_blocks(plan.master_seed, plan.reps, n):
        pay = sample_payoffs((rows, n), rng, params)
        if r == 0:
            s = pay.sum(axis=1)
        elif r == 1 and params.is_classical:
            s = pay.sum(axis=1)
            big = s >= _EXACT_SUM
            s -= pay.max(axis=1)
            if big.any():
                s[big] = _trim_by_partition(pay[big], r)
        else:
            s = _trim_by_partition(pay, r)
        out[pos : pos + rows] = s
        pos += rows
    return out


def simulate_trimmed(
    plan: SimPlan, params: GameParams = CLASSICAL, centered: bool = False
) -> EmpiricalTail:
    """Empirical law of the r-trimmed sum; centered mode returns
    S_{n,r}/n - a_{n,gamma_n}^(r) instead of the raw sum."""
    s = _draw_trimmed_sums(plan, params)
    if centered:
        if not params.is_classical:
            raise ValueError("centered mode is classical-only")
        s = s / plan.n - centering(plan.n, gamma_n(plan.n), plan.r)
    return EmpiricalTail.from_samples(s)


def merge_check(n: int, reps: int = 200_000, seed: int = 0) -> dict:
    """KS distance between S_n/n - log2(n) and the inverted untrimmed limit CF
    at gamma_n; merging says this is small along every subsequence.

    The draws are bit-identical given (seed, replicate index), but ``ks`` is
    defined only up to the ``error`` of ``wgamma_cdf_curve(gamma_n)``: its
    last bits depend on the numpy build's FFT and sin/exp kernels."""
    g = gamma_n(n)
    curve = wgamma_cdf_curve(g)
    s = _draw_trimmed_sums(SimPlan(n=n, r=0, reps=reps, master_seed=seed))
    z = np.sort(s / n - math.log2(n))
    f_emp = np.arange(1, reps + 1) / reps
    f_th = curve.eval(z)
    ks = float(np.max(np.abs(f_emp - f_th)))
    return {"n": n, "gamma": g, "reps": reps, "ks": ks}


def trimmed_merge_check(n: int, reps: int = 200_000, seed: int = 0) -> dict:
    """KS distance between (S_n - max)/n - log2(n) and the trimmed limit
    mixture at gamma_n; the centering is the same log2(n) as untrimmed.

    The draws are bit-identical given (seed, replicate index), but ``ks`` is
    defined only up to the largest ``error`` of the ``wjg_cdf_curve`` curves
    the mixture reads: they are FFT inversions too."""
    g = gamma_n(n)
    s = _draw_trimmed_sums(SimPlan(n=n, r=1, reps=reps, master_seed=seed))
    z = np.sort(s / n - math.log2(n))
    f_emp = np.arange(1, reps + 1) / reps
    f_th = gstar_cdf(g, z)
    ks = float(np.max(np.abs(f_emp - f_th)))
    return {"n": n, "gamma": g, "reps": reps, "ks": ks}


def max_pmf_check(n: int, j_lo: int = -3, j_hi: int = 6, reps: int = 1_000_000, seed: int = 0) -> dict:
    """Empirical pmf of the maximum payoff on the dyadic ladder against the
    limit weights p_{j,gamma_n}; agreement is O(1/n) plus MC noise."""
    from petersburg.limitlaw import p_weight

    k0 = (n - 1).bit_length()  # ceil(log2 n)
    g = gamma_n(n)
    counts = np.zeros(j_hi - j_lo + 1, dtype=np.int64)
    outside = 0
    for rng, rows in seed_blocks(seed, reps, n):
        m = payoff_levels(sample_payoffs((rows, n), rng).max(axis=1)) - k0
        inside = (m >= j_lo) & (m <= j_hi)
        counts += np.bincount(m[inside] - j_lo, minlength=j_hi - j_lo + 1)
        outside += int((~inside).sum())
    rows_out = []
    for j in range(j_lo, j_hi + 1):
        emp = counts[j - j_lo] / reps
        w = p_weight(j, g)
        sigma = math.sqrt(max(emp * (1 - emp), 1.0 / reps) / reps)
        rows_out.append({"j": j, "empirical": emp, "weight": w, "deviation": emp - w, "sigma": sigma})
    return {"n": n, "gamma": g, "reps": reps, "rows": rows_out, "outside_mass": outside / reps}


def chernoff_check(
    n: int,
    j: int,
    xs=(0.5, 1.0, 2.0, 4.0),
    reps: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Empirical conditional upper tails against the Chernoff bound.

    Conditioning {max level <= ceil(log2 n) + j} is sampled directly; the
    deviation is S_n/n minus the exact conditional per-game mean, and each
    empirical tail must stay below exp(-h(x)/eta) up to 3 sigma of MC noise.
    """
    cap = (n - 1).bit_length() + j
    if cap < 1:
        raise ValueError("conditioning level below 1; raise j")
    mu = truncated_moment(1, cap)
    tails = np.zeros(len(xs), dtype=np.int64)
    xs_arr = np.asarray(xs, dtype=float)
    for rng, rows in seed_blocks(seed, reps, n):
        z = sample_truncated_payoffs(cap, (rows, n), rng).sum(axis=1) / n - mu
        tails += (z[:, None] >= xs_arr[None, :]).sum(axis=0)
    rows = []
    for x, cnt in zip(xs, tails):
        p = cnt / reps
        bound = chernoff_bound(n, j, None, float(x))
        sigma = math.sqrt(max(p * (1 - p), 1.0 / reps) / reps)
        rows.append(
            {
                "x": float(x),
                "empirical": p,
                "bound": bound,
                "sigma": sigma,
                "violation": p > bound + 3.0 * sigma,
            }
        )
    return {"n": n, "j": j, "eta": math.ldexp(1.0, j) / gamma_n(n), "reps": reps, "rows": rows}


def histogram_fig1(
    n: int = 128,
    reps: int = 1_000_000,
    seed: int = 0,
    bin_width: float = 0.25,
    lo: float = 7.0,
    hi: float = 32.0,
) -> dict:
    """Paired histograms of log2(S_n) and log2(S_n - max payoff).

    One draw pass feeds both: single big payoffs put the untrimmed sum near
    integer log2 values, giving disjoint side lobes that trimming removes.
    """
    nbins = int(round((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(nbins + 1)
    counts_full = np.zeros(nbins, dtype=np.int64)
    counts_trim = np.zeros(nbins, dtype=np.int64)
    for rng, rows in seed_blocks(seed, reps, n):
        pay = sample_payoffs((rows, n), rng)
        s = pay.sum(axis=1)
        t = s - pay.max(axis=1)
        counts_full += np.histogram(np.log2(s), bins=nbins, range=(lo, hi))[0]
        counts_trim += np.histogram(np.log2(t), bins=nbins, range=(lo, hi))[0]
    return {
        "n": n,
        "reps": reps,
        "edges": edges,
        "counts_untrimmed": counts_full,
        "counts_trimmed": counts_trim,
        "lobe_threshold": math.log2(n) + math.log2(math.log2(n)) + 2.0,
    }


def side_lobe_stats(hist: dict, min_count: int = 0) -> dict:
    """Side-lobe mass above the threshold for both histograms, plus the count
    of disjoint lobes (maximal runs of bins exceeding min_count)."""
    edges = hist["edges"]
    centers = 0.5 * (edges[:-1] + edges[1:])
    above = centers > hist["lobe_threshold"]
    mass_full = int(hist["counts_untrimmed"][above].sum())
    mass_trim = int(hist["counts_trimmed"][above].sum())
    hot = (hist["counts_untrimmed"] > min_count) & above
    lobes = int(np.sum(hot[1:] & ~hot[:-1]) + (1 if hot[0] else 0))
    return {
        "mass_untrimmed": mass_full,
        "mass_trimmed": mass_trim,
        "ratio": mass_trim / mass_full if mass_full else 0.0,
        "lobes_untrimmed": lobes,
    }


def calibrate_uniform_bound_c(
    n: int,
    r: int,
    delta: float = 0.3,
    xs=(math.e, 5.0, 10.0, 20.0),
    reps: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Smallest C making the two-term uniform tail bound hold on the x grid
    for Monte Carlo estimates of P{S_{n,r}/n - a_n > x}.

    Only the existence of C is guaranteed, so the calibrated value is an
    empirical artifact of (n, r, delta, grid, reps, seed).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    et = simulate_trimmed(SimPlan(n=n, r=r, reps=reps, master_seed=seed), centered=True)
    worst = 0.0
    for x in xs:
        p = float(et.tail(x))
        term1 = 2 ** (r + 1) / math.factorial(r + 1) / ((1.0 - delta) * x) ** (r + 1)
        worst = max(worst, (p - term1) * delta ** (r + 1.5) * x ** (r + 1.5))
    return worst
