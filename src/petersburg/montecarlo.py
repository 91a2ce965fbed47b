"""Seeded Monte Carlo for St. Petersburg sums.

Every sampler here draws through stpdist.seed_blocks, the one place where
(seed, block index) maps to a random stream: results depend only on the master
seed, never on batching, and each sub-block holds at most 2^16 payoff draws
(512 KB per array), so a classical draw's few in-place passes stay in cache
and sampling adds a few MB to the process: 37 MB resident after 8192
replicates at n = 4096, against 30 MB after import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from petersburg.stpdist import (
    CLASSICAL,
    GameParams,
    _check_seed_reps,
    _empty_draws,
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
        _check_seed_reps(self.master_seed, self.reps)


@dataclass
class EmpiricalTail:
    """Sorted sample with tail lookups and a conservative CI half-width."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalTail":
        return cls(np.sort(np.asarray(samples, dtype=float)))

    @property
    def reps(self) -> int:
        return self.samples.size

    def tail(self, x) -> float:
        idx = np.searchsorted(self.samples, x, side="right")
        return float(self.reps - idx) / self.reps

    def ci_halfwidth(self, x) -> float:
        p = float(self.tail(x))
        return 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / self.reps) / self.reps)


_EXACT_SUM = 2.0**53  # classical row sums below this are exact integers


def _trim(pay: np.ndarray, row_sums: np.ndarray, r: int, params: GameParams) -> np.ndarray:
    """Each row of pay minus its r largest payoffs, given the row sums.  For
    the classical game with r = 1 this is the row sum minus the row max, exact
    while every sum is below 2^53; a block with a sum that reaches it is summed
    by partition, as every other case is, and each row keeps its bits either way."""
    if r == 0:
        return row_sums
    if r == 1 and params.is_classical and row_sums.max() < _EXACT_SUM:
        return row_sums - pay.max(axis=1)
    n = pay.shape[1]
    return np.partition(pay, n - r - 1, axis=1)[:, : n - r].sum(axis=1)


def _draw_trimmed_sums(
    out: np.ndarray, n: int, seed: int, rs, params: GameParams = CLASSICAL
) -> np.ndarray:
    """Fill out, one row per r in rs, with out.shape[1] replicates of S_n minus
    its r largest payoffs, every row from the same draw; returns out."""
    pos = 0
    for rng, rows in seed_blocks(seed, out.shape[1], n):
        pay = sample_payoffs((rows, n), rng, params)
        s = pay.sum(axis=1)
        for i, r in enumerate(rs):
            out[i, pos : pos + rows] = _trim(pay, s, r, params)
        pos += rows
    return out


def simulate_trimmed(
    plan: SimPlan, params: GameParams = CLASSICAL, centered: bool = False
) -> EmpiricalTail:
    """Empirical law of the r-trimmed sum; centered mode returns
    S_{n,r}/n - a_{n,gamma_n}^(r) instead of the raw sum, for the classical
    game only (refused before drawing otherwise)."""
    if centered and not params.is_classical:
        raise ValueError("centered mode is classical-only")
    out = _empty_draws(1, plan.reps)
    s = _draw_trimmed_sums(out, plan.n, plan.master_seed, (plan.r,), params)[0]
    if centered:
        s = s / plan.n - centering(plan.n, gamma_n(plan.n), plan.r)
    return EmpiricalTail.from_samples(s)


def _merging_ks(n: int, reps: int, seed: int, rs=(0, 1)) -> dict:
    """{r: KS distance of (S_n minus its r largest)/n - log2(n) to W_gamma_n
    (r = 0) or G* (r = 1)} for r in rs, all from one draw.  Refused before any
    curve build; W_gamma is built before the draw, whose memory (numpy.random
    with it) would otherwise sit under the build's peak, 5 MB in a fresh process."""
    from petersburg.limitlaw import gstar_cdf, wgamma_cdf_curve

    SimPlan(n=n, r=max(rs), reps=reps, master_seed=seed)
    out = _empty_draws(len(rs), reps)
    g = gamma_n(n)
    w_cdf = wgamma_cdf_curve(g).eval if 0 in rs else None
    zs = np.sort(_draw_trimmed_sums(out, n, seed, rs) / n - math.log2(n), axis=1)
    f_emp = np.arange(1, reps + 1) / reps
    ks = {}
    for r, z in zip(rs, zs):
        limit = gstar_cdf(g, z) if r else w_cdf(z)
        ks[r] = float(np.max(np.abs(f_emp - limit)))
    return ks


def merge_check(n: int, reps: int = 200_000, seed: int = 0) -> dict:
    """KS distance between S_n/n - log2(n) and the inverted untrimmed limit CF
    at gamma_n; merging says this is small along every subsequence.

    The draws are bit-identical given (seed, replicate index), but ``ks`` is
    defined only up to the ``error`` of ``wgamma_cdf_curve(gamma_n)``: its
    last bits depend on the numpy build's FFT and sin/exp kernels."""
    return {"n": n, "gamma": gamma_n(n), "reps": reps,
            "ks": _merging_ks(n, reps, seed, (0,))[0]}


def trimmed_merge_check(n: int, reps: int = 200_000, seed: int = 0) -> dict:
    """KS distance between (S_n - max)/n - log2(n) and the trimmed limit
    mixture at gamma_n; the centering is the same log2(n) as untrimmed.

    The draws are bit-identical given (seed, replicate index), but ``ks`` is
    defined only up to the largest ``error`` of the ``wjg_cdf_curve`` curves
    the mixture reads: they are FFT inversions too."""
    return {"n": n, "gamma": gamma_n(n), "reps": reps,
            "ks": _merging_ks(n, reps, seed, (1,))[1]}


def max_pmf_check(n: int, j_lo: int = -3, j_hi: int = 6, reps: int = 1_000_000, seed: int = 0) -> dict:
    """Empirical pmf of the maximum payoff on the dyadic ladder against the
    limit weights p_{j,gamma_n}; agreement is O(1/n) plus MC noise."""
    from petersburg.limitlaw import p_weight

    if j_lo > j_hi:
        raise ValueError(f"need j_lo <= j_hi, got j_lo = {j_lo}, j_hi = {j_hi}")
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
    bounds = [chernoff_bound(n, j, None, float(x)) for x in xs]  # validates before drawing
    cap = (n - 1).bit_length() + j
    mu = truncated_moment(1, cap)
    tails = np.zeros(len(xs), dtype=np.int64)
    xs_arr = np.asarray(xs, dtype=float)
    for rng, rows in seed_blocks(seed, reps, n):
        z = sample_truncated_payoffs(cap, (rows, n), rng).sum(axis=1) / n - mu
        tails += (z[:, None] >= xs_arr[None, :]).sum(axis=0)
    rows = []
    for x, cnt, bound in zip(xs, tails, bounds):
        p = cnt / reps
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
    n: int = 128, reps: int = 1_000_000, seed: int = 0, bin_width: float = 0.25
) -> dict:
    """Paired histograms of log2(S_n) and log2(S_n - max payoff) on [7, 32].

    One draw pass feeds both: single big payoffs put the untrimmed sum near
    integer log2 values, giving disjoint side lobes that trimming removes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = 7.0, 32.0
    if not 0.0 < bin_width <= hi - lo:
        raise ValueError(f"bin_width must lie in (0, {hi - lo}], got {bin_width}")
    nbins = int(round((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(nbins + 1)
    counts_full = np.zeros(nbins, dtype=np.int64)
    counts_trim = np.zeros(nbins, dtype=np.int64)
    for rng, rows in seed_blocks(seed, reps, n):
        pay = sample_payoffs((rows, n), rng)
        s = pay.sum(axis=1)
        t = _trim(pay, s, 1, CLASSICAL)
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


def side_lobe_stats(hist: dict) -> dict:
    """Side-lobe mass above the threshold for both histograms, plus the count
    of disjoint lobes (maximal runs of non-empty bins)."""
    edges = hist["edges"]
    centers = 0.5 * (edges[:-1] + edges[1:])
    above = centers > hist["lobe_threshold"]
    mass_full = int(hist["counts_untrimmed"][above].sum())
    mass_trim = int(hist["counts_trimmed"][above].sum())
    hot = (hist["counts_untrimmed"] > 0) & above
    lobes = int(np.sum(hot[1:] & ~hot[:-1]) + (1 if hot[0] else 0))
    return {
        "mass_untrimmed": mass_full,
        "mass_trimmed": mass_trim,
        "ratio": mass_trim / mass_full if mass_full else 0.0,
        "lobes_untrimmed": lobes,
    }

