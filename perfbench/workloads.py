"""The four workloads: their input pools, seeded inputs, operations and output checks.

Inputs come only from the workload seed.  Exact and CLI inputs are drawn
from fixed pools whose answers were recorded from the reference commit
(``expected.json``, written by ``record.py``), so any seed can be checked bit
for bit.  Monte Carlo outputs are checked with statistical bounds that any
sampler with the same law passes, never with draw digests.  Limit-law
outputs are checked against a second engine within the stated error budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys

import numpy as np

WORKLOADS = ("exact-lattice", "mc-merge", "limit-curves", "cli-cold")

# Seconds one round takes on the reference machine (2 cores), set-up included;
# a run makes round(--seconds / this) rounds, so every run does the same work.
NOMINAL_ROUND_S = {"exact-lattice": 8.2, "mc-merge": 20.0, "limit-curves": 19.0, "cli-cold": 27.0}


class Mismatch(Exception):
    """An output failed its check."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# ---------------------------------------------------------------------------
# exact-lattice

SWEEP_N = (2, 4, 16)
# log-uniform integer grid over 2^10..2^14, 256 points per octave, like fig2
SWEEP_POOL = sorted({round(2.0 ** (10 + i / 256)) for i in range(4 * 256 + 1)})
SWEEP_LOOKUPS = 2000  # per n, drawn with replacement: the table is built once
ORACLE_PER_N = 3  # sweep answers for n = 2, 4 re-derived by enumeration
LIMINF = ((4, 132120), (2, 66192))  # largest x first, so one table per n
LIMINF_TOL = 0.02
# (n, r) -> low end of a narrow x band, so every seed costs about the same.
# Three rounds hold 18 queries with n = 32, the slowest calls after the three
# n = 4 liminf table builds; they sit at ranks 4-21 and set op_tail_ms.
TRIM_BANDS = {(4, 1): 4096, (8, 1): 12288, (8, 2): 12288, (16, 1): 6144,
              (16, 2): 6144, (32, 1): 3072, (32, 2): 3072}
SNR_BANDS = {(16, 1): 3072.5, (16, 2): 3072.5, (32, 1): 3072.5, (32, 2): 3072.5}
PER_CLASS = 3  # distinct queries per (n, r) class and round
POOL_SIZE = 24


def band_pool(lo):
    step = max(1, int(lo) // 256)
    return [lo + step * i for i in range(POOL_SIZE)]


def dyadic_digest(dp) -> str:
    text = json.dumps(dp.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


EXACT_CHECKS = ("check_two_sum_closed_form",)


def exact_inputs(rng: random.Random) -> dict:
    lookups = [(n, rng.choice(SWEEP_POOL)) for n in SWEEP_N for _ in range(SWEEP_LOOKUPS)]
    oracle = rng.sample([q for q in lookups if q[0] <= 4], 2 * ORACLE_PER_N)
    heavy = [("trimmed", n, r, x) for (n, r), lo in TRIM_BANDS.items()
             for x in rng.sample(band_pool(lo), PER_CLASS)]
    heavy += [("snr", n, r, x) for (n, r), lo in SNR_BANDS.items()
              for x in rng.sample(band_pool(lo), PER_CLASS)]
    heavy += [("check", name) for name in EXACT_CHECKS]
    rng.shuffle(lookups)
    rng.shuffle(heavy)
    return {"lookups": lookups, "oracle": oracle, "heavy": heavy}


def _check_dyadic(rnd, want: str, dp) -> None:
    rnd.counts["exact.result_bits"] += dp.num.bit_length()
    expect(dyadic_digest(dp) == want, f"digest {dyadic_digest(dp)} != recorded {want}")


def run_exact_lattice(rnd, inp: dict, exp: dict) -> None:
    from petersburg import checks
    from petersburg.asymptotics import snr_tail_rhs
    from petersburg.exact import enum_oracle, sum_tail_exact, trimmed_tail_exact

    digests = exp["sum_tail"]

    def check_liminf(n, x, dp):
        _check_dyadic(rnd, digests[f"{n},{x}"], dp)
        v = x * float(dp) / n
        expect(abs(v - 1.0) <= LIMINF_TOL, f"x P/n = {v} not within {LIMINF_TOL} of 1")

    for n, x in LIMINF:
        rnd.op("exact.sum_tail_exact", sum_tail_exact, n, x,
               check=lambda dp, n=n, x=x: check_liminf(n, x, dp))

    oracle = {tuple(q) for q in inp["oracle"]}

    def check_sweep(n, x, dp):
        _check_dyadic(rnd, digests[f"{n},{x}"], dp)
        if (n, x) in oracle:
            oracle.discard((n, x))
            ref = rnd.call("exact.enum_oracle", enum_oracle, n, 0, x)
            expect(ref == dp, f"table {dp} != enumeration {ref}")

    def lookup(n, x):
        rnd.op("exact.sum_tail_exact", sum_tail_exact, n, x,
               check=lambda dp: check_sweep(n, x, dp))

    # the top of the grid first: one table build per n covers the whole sweep
    for n in SWEEP_N:
        lookup(n, SWEEP_POOL[-1])

    def check_trimmed(n, r, x, dp):
        _check_dyadic(rnd, exp["trimmed"][f"{n},{r},{x}"], dp)
        if n <= 4:
            ref = rnd.call("exact.enum_oracle", enum_oracle, n, r, x)
            expect(ref == dp, f"DP {dp} != enumeration {ref}")

    def check_snr(n, r, x, asym):
        value, inner = exp["snr"][f"{n},{r},{x}"]
        expect(asym.inner_backend == "exact", f"inner backend {asym.inner_backend}")
        expect(asym.inner_prob == inner, f"inner {asym.inner_prob!r} != recorded {inner!r}")
        expect(math.isclose(asym.value, value, rel_tol=1e-12), f"{asym.value!r} != {value!r}")

    def heavy(kind, *args):
        if kind == "trimmed":
            rnd.op("exact.trimmed_tail_exact", trimmed_tail_exact, *args,
                   check=lambda dp: check_trimmed(*args, dp))
        elif kind == "snr":
            rnd.op("asymptotics.snr_tail_rhs", snr_tail_rhs, *args,
                   check=lambda a: check_snr(*args, a))
        else:
            rnd.op("checks." + args[0], getattr(checks, args[0]),
                   check=lambda res: expect(res.passed, res.measured))

    # microsecond lookups are spread between the slow calls, so their median
    # samples the whole round rather than a few milliseconds of it
    lookups, chunk = inp["lookups"], -(-len(inp["lookups"]) // (len(inp["heavy"]) + 1))
    for i, h in enumerate([None] + inp["heavy"]):
        if h is not None:
            heavy(*h)
        for n, x in lookups[i * chunk:(i + 1) * chunk]:
            lookup(n, x)


# ---------------------------------------------------------------------------
# mc-merge

# One round does all of it, in cost classes.  The two limit-curve builds come
# first and are the slowest calls.  On the reference machine the two Chernoff
# checks and the two n = 4096 trimmed merge checks then cost about 0.9 s each,
# the ten n = 4096 simulate_trimmed calls about 0.5 s each, and everything
# else at most about 0.25 s.  op_tail_ms, the 11th slowest call, is then in
# the middle of the simulate_trimmed class.  Many equal sample_levels calls,
# spread in chunks between the others, set op_p50_ms.
MERGE_REPS = {64: 50_000, 4096: 1_200}
TMERGE_REPS = {64: 20_000, 4096: 4_000}
SIM_REPS = {(64, 1): 10_000, (4096, 0): 3_200, (4096, 1): 2_600}
CHERNOFF_REPS = 14_000
# (kind, n, r): the n = 64 checks first, so every n = 4096 KS has them to
# compare with; a fixed order, so peak memory does not depend on the seed
SIMS = (("sim", 4096, 0), ("sim", 4096, 1))
MC_CALLS = ((("merge", 64, 0), ("tmerge", 64, 1), ("sim", 64, 1), ("chernoff", 1024, 0))
            + SIMS + (("merge", 4096, 0), ("tmerge", 4096, 1)) + SIMS + (("maxpmf", 256, 0),)
            + SIMS + (("chernoff", 1024, 1),) + SIMS + (("merge", 4096, 0), ("tmerge", 4096, 1))
            + SIMS + (("fig1", 128, 0),))
MAX_PMF_REPS = 35_000
FIG1_REPS = 20_000
LEVEL_CALLS, LEVEL_DRAWS = 200, 250_000
# The trimmed KS statistics evaluate G*_1 up to the largest sampled value and
# build one more conditional curve per octave above x = 64, which would make
# a round's cost depend on its extreme draws.  Reaching x = 1900 up front
# builds every curve the draws need except with probability about 3 % a round.
GSTAR_GRID = np.append(np.linspace(-5.0, 60.0, 1999), 1900.0)
GSTAR_STRIDE = 20  # every 20th point is recorded
WGAMMA1_XS = np.linspace(-4.0, 40.0, 45)
# KS distance of S_{n,r}/n - log2 n to its limit at 200k replicates (merging
# gap, measured), rounded up; sqrt(reps) KS of a correct sampler exceeds
# KS_Z with probability about 2 exp(-2 KS_Z^2) = 7.5e-6.
KS_GAP = {(64, 0): 0.030, (64, 1): 0.053, (4096, 0): 0.005, (4096, 1): 0.005}
KS_Z = 2.5
PMF_SIGMAS = 5.0  # plus a 1/n allowance for the O(1/n) gap to the limit weights
LOBE_RATIO_MAX = 0.25


def ks_bound(n: int, r: int, reps: int) -> float:
    return KS_GAP[n, r] + KS_Z / math.sqrt(reps)


def mc_inputs(rng: random.Random) -> dict:
    calls = [[*call, rng.randrange(2**32)] for call in MC_CALLS]
    return {"calls": calls, "levels": [rng.randrange(2**32) for _ in range(LEVEL_CALLS)]}


def run_mc_merge(rnd, inp: dict, exp: dict) -> None:
    from petersburg.limitlaw import gstar_cdf, wgamma_cdf_curve
    from petersburg.montecarlo import (SimPlan, chernoff_check, histogram_fig1, max_pmf_check,
                                       merge_check, simulate_trimmed, trimmed_merge_check)
    from petersburg.stpdist import sample_levels

    ref = exp["mc"]

    def check_curve(curve):
        expect(curve.error <= 1e-6, f"curve error {curve.error}")
        got = curve.eval(WGAMMA1_XS)
        gap = float(np.max(np.abs(got - np.array(ref["wgamma1_cdf"]))))
        expect(gap <= 1e-9 + curve.error, f"W_1 curve moved by {gap}")

    # the limit curves come first, so the checks below time sampling only
    curve = rnd.op("limitlaw.wgamma_cdf_curve", wgamma_cdf_curve, 1.0, check=check_curve,
                   attrs={"key": "gamma1"})

    def check_gstar(vals):
        gap = float(np.max(np.abs(vals[::GSTAR_STRIDE] - np.array(ref["gstar1"]))))
        expect(gap <= 1e-9, f"G*_1 moved by {gap}")

    rnd.op("limitlaw.gstar_cdf", gstar_cdf, 1.0, GSTAR_GRID, check=check_gstar,
           attrs={"points": GSTAR_GRID.size, "key": "cold"})

    def check_levels(k):
        expect(k.min() >= 1, "level below 1")
        for lvl, p in ((1, 0.5), (2, 0.25)):
            frac = float(np.mean(k == lvl))
            sigma = math.sqrt(p * (1 - p) / k.size)
            expect(abs(frac - p) <= 6 * sigma, f"P(K={lvl}) = {frac}")

    def levels(seeds):
        for seed in seeds:
            rnd.op("stpdist.sample_levels", sample_levels, LEVEL_DRAWS,
                   np.random.default_rng(seed), check=check_levels,
                   attrs={"draws": LEVEL_DRAWS})

    ks64 = {}  # r -> KS at n = 64, which runs first

    def check_ks(r, res):
        n, reps, ks = res["n"], res["reps"], res["ks"]
        if n == 64:
            ks64[r] = ks
        expect(ks <= ks_bound(n, r, reps), f"KS {ks} > {ks_bound(n, r, reps)}")
        if n == 4096:
            # trimmed: the n = 64 gap exceeds both noise bands, so the order is
            # strict; untrimmed: a few thousand replicates cannot resolve it,
            # so allow noise
            allow = 0.0 if r else KS_Z / math.sqrt(reps)
            expect(ks < ks64[r] + allow, f"KS did not shrink with n: {ks64[r]} at 64, {ks} at {n}")

    def check_chernoff(res):
        bad = [row for row in res["rows"] if row["violation"]]
        expect(not bad, f"Chernoff bound violated: {bad}")

    def check_pmf(res):
        for row in res["rows"]:
            allow = PMF_SIGMAS * row["sigma"] + 1.0 / res["n"]
            expect(abs(row["deviation"]) <= allow, f"level {row['j']}: deviation {row['deviation']}")

    def check_fig1(hist):
        from petersburg.montecarlo import side_lobe_stats

        expect(int(hist["counts_trimmed"].sum()) == FIG1_REPS, "trimmed histogram lost draws")
        stats = side_lobe_stats(hist)
        expect(stats["ratio"] < LOBE_RATIO_MAX and stats["lobes_untrimmed"] >= 2,
               f"side lobes {stats}")

    def check_sim(n, r, reps, emp):
        s = emp.samples
        expect(s.size == reps and s[0] >= 2 * (n - r), "sample size or minimum wrong")
        expect(bool(np.all(np.mod(s, 2.0) == 0.0)), "trimmed sums are not even integers")
        z = s / n - math.log2(n)
        limit = curve.eval(z) if r == 0 else rnd.call(
            "limitlaw.gstar_cdf", gstar_cdf, 1.0, z, attrs={"points": z.size, "key": "warm"})
        d = float(np.max(np.abs(np.arange(1, reps + 1) / reps - limit)))
        expect(d <= ks_bound(n, r, reps), f"KS {d} > {ks_bound(n, r, reps)}")

    def call(kind, n, r, seed):
        if kind == "merge":
            rnd.op("montecarlo.merge_check", merge_check, n, MERGE_REPS[n], seed,
                   check=lambda res: check_ks(0, res), attrs={"games": n * MERGE_REPS[n]})
        elif kind == "tmerge":
            rnd.op("montecarlo.trimmed_merge_check", trimmed_merge_check, n, TMERGE_REPS[n],
                   seed, check=lambda res: check_ks(1, res), attrs={"games": n * TMERGE_REPS[n]})
        elif kind == "chernoff":
            rnd.op("montecarlo.chernoff_check", chernoff_check, n, r, reps=CHERNOFF_REPS,
                   seed=seed, check=check_chernoff, attrs={"games": n * CHERNOFF_REPS})
        elif kind == "maxpmf":
            rnd.op("montecarlo.max_pmf_check", max_pmf_check, n, reps=MAX_PMF_REPS, seed=seed,
                   check=check_pmf, attrs={"games": n * MAX_PMF_REPS})
        elif kind == "fig1":
            rnd.op("montecarlo.histogram_fig1", histogram_fig1, n, FIG1_REPS, seed,
                   check=check_fig1, attrs={"games": n * FIG1_REPS})
        else:
            reps = SIM_REPS[n, r]
            plan = SimPlan(n=n, r=r, reps=reps, master_seed=seed)
            rnd.op("montecarlo.simulate_trimmed", simulate_trimmed, plan,
                   check=lambda emp: check_sim(n, r, reps, emp),
                   attrs={"games": n * reps, "key": f"n{n}_r{r}"})

    # level draws in equal chunks between the checks, so their median samples
    # the whole round rather than a fraction of a second of it
    calls, seeds = inp["calls"], inp["levels"]
    chunk = -(-len(seeds) // (len(calls) + 1))
    for i, c in enumerate([None] + calls):
        if c is not None:
            call(*c)
        levels(seeds[i * chunk:(i + 1) * chunk])


# ---------------------------------------------------------------------------
# limit-curves

# One round does all of it.  The pointwise inversion and the two W_gamma
# builds are the slowest calls.  The cold G* grids come next, about half a
# second each on the reference machine: one at POINT_GAMMA and GSTAR_SWEEP in a
# band where their cost hardly depends on gamma, so op_tail_ms (the 11th
# slowest call) is the middle of that class.  Everything else costs less.
WG_HI = 3072.0  # a smaller window than the CLI default keeps a cold build near 1 s
WG_BANDS = {"gamma_lo": (0.76, 0.80), "gamma_hi": (0.90, 0.95)}
WG_CHECK_XS = np.linspace(-3.0, 30.0, 12)
WJG_J = (-1, 0, 1)
MOMENT_TOL = 1e-6
GSTAR_SWEEP = 15
GSTAR_BAND = (0.8, 0.98)
GSTAR_XS = np.linspace(-4.0, 40.0, 2000)
# scalar G* queries, warm, at POINT_GAMMA: the many equal calls, spread in
# chunks between the others, set op_p50_ms.  In this band a scalar query
# below x = 64 always sums the same levels j and the same number of
# conditional curves, and one x is drawn from each of POINT_QUERIES equal
# slices of the grid, so every seed costs the same.
POINT_GAMMA = (0.73, 0.75)
POINT_QUERIES = 200
POINT_AGREE = 1e-9
POINT_TOL = 1e-4
CF_POINTS = 20_000
Y_DRAWS = 100_000
Y_BAND = (0.9, 2.2)  # x P{Y > x} on the dyadic sweep, from the y_tail_bracket check
Y_XS = (16.0, 32.0, 64.0)


def limit_inputs(rng: random.Random) -> dict:
    return {
        "wgamma": {k: rng.uniform(*band) for k, band in WG_BANDS.items()},
        "wjg_gamma": rng.uniform(0.6, 1.0),
        "point_gamma": rng.uniform(*POINT_GAMMA),
        "gstar_gammas": [rng.uniform(*GSTAR_BAND) for _ in range(GSTAR_SWEEP)],
        "gstar_points": [k * GSTAR_XS.size // POINT_QUERIES
                         + rng.randrange(GSTAR_XS.size // POINT_QUERIES)
                         for k in range(POINT_QUERIES)],
        "point_x": rng.uniform(-1.0, 3.0),
        "cf_gamma": rng.uniform(0.5, 1.0),
        "eta": rng.uniform(0.5, 4.0),
        "y_seed": rng.randrange(2**32),
    }


def run_limit_curves(rnd, inp: dict, exp: dict) -> None:
    from petersburg import checks
    from petersburg.limitlaw import (cdf_from_cf, cf_Wgamma, cf_Wjgamma, curve_moments,
                                     gmix_cdf, gstar_cdf, log_cf_f, sample_Y, wgamma_cdf_curve,
                                     wjg_cdf_curve)

    calls = []  # the round's calls other than the G* grids and scalar G* queries

    def check_wgamma(g, curve):
        expect(curve.error <= 1e-6, f"curve error {curve.error}")
        mix = rnd.call("limitlaw.gmix_cdf", gmix_cdf, g, WG_CHECK_XS)
        # error budget: the curve's own error field plus its documented clamp
        # error P{W > hi}, at most 4 / (gamma hi)
        allow = curve.error + 4.0 / (g * WG_HI)
        gap = float(np.max(np.abs(mix - curve.eval(WG_CHECK_XS))))
        expect(gap <= allow, f"mixture vs FFT gap {gap} > {allow}")

    for key, g in inp["wgamma"].items():
        calls.append(lambda key=key, g=g: rnd.op(
            "limitlaw.wgamma_cdf_curve", wgamma_cdf_curve, g, WG_HI,
            check=lambda c: check_wgamma(g, c), attrs={"key": key}))

    g = inp["wjg_gamma"]
    for j in WJG_J:
        eta = math.ldexp(1.0, j) / g

        def check_moments(curve, eta=eta):
            mean, var = curve_moments(curve)
            expect(abs(mean - math.log2(eta)) <= MOMENT_TOL and abs(var - 2 * eta) <= MOMENT_TOL,
                   f"moments {mean}, {var} vs {math.log2(eta)}, {2 * eta}")

        calls.append(lambda j=j, g=g, check=check_moments: rnd.op(
            "limitlaw.wjg_cdf_curve", wjg_cdf_curve, j, g, check=check))

    def check_gstar(vals):
        expect(bool(np.all((vals >= 0.0) & (vals <= 1.0))), "G* outside [0, 1]")
        expect(bool(np.all(np.diff(vals) >= -1e-12)), "G* decreasing")

    def grid(g):
        return rnd.op("limitlaw.gstar_cdf", gstar_cdf, g, GSTAR_XS, check=check_gstar,
                      attrs={"points": GSTAR_XS.size, "key": "cold"})

    grids = [lambda g=g: grid(g) for g in inp["gstar_gammas"]]

    x = inp["point_x"]

    def check_point(res):
        curve = rnd.call("limitlaw.wjg_cdf_curve", wjg_cdf_curve, 0, 1.0)
        allow = res.error + curve.error + 1e-9
        gap = abs(res.value - float(curve.eval(x)))
        expect(gap <= allow, f"pointwise vs FFT gap {gap} > {allow}")

    calls.append(lambda: rnd.op("limitlaw.cdf_from_cf", cdf_from_cf,
                                lambda t: cf_Wjgamma(0, 1.0, t), x, POINT_TOL, check=check_point))

    def check_cf(phi):
        expect(bool(np.all(np.isfinite(phi))), "non-finite cf")
        expect(abs(phi[0] - 1.0) <= 1e-12, f"cf(0) = {phi[0]}")
        expect(float(np.max(np.abs(phi))) <= 1.0 + 1e-12, "|cf| > 1")

    calls.append(lambda: rnd.op("limitlaw.cf_Wgamma", cf_Wgamma, inp["cf_gamma"],
                                np.linspace(0.0, 60.0, CF_POINTS), check=check_cf,
                                attrs={"points": CF_POINTS}))

    eta = inp["eta"]
    ts = np.linspace(0.25, 12.0, CF_POINTS)

    def check_log_cf(vals):
        for i in (0, CF_POINTS // 2, CF_POINTS - 1):
            ref = rnd.call("limitlaw.log_cf_f", log_cf_f, eta, float(ts[i]), "taylor")
            expect(abs(vals[i] - ref) <= 1e-10, f"atoms vs taylor at t={ts[i]}")

    calls.append(lambda: rnd.op("limitlaw.log_cf_f", log_cf_f, eta, ts, "atoms",
                                check=check_log_cf, attrs={"points": CF_POINTS}))

    def check_y(ys):
        expect(ys.size == Y_DRAWS and bool(np.all(np.isfinite(ys))), "bad sample")
        for xv in Y_XS:
            p = float(np.mean(ys > xv))
            slack = 5.0 * xv * math.sqrt(p / ys.size)
            expect(Y_BAND[0] - slack <= xv * p <= Y_BAND[1] + slack, f"x P(Y > x) = {xv * p} at {xv}")

    calls.append(lambda: rnd.op("limitlaw.sample_Y", sample_Y, 0, 1.0, 10_000, Y_DRAWS,
                                inp["y_seed"], check=check_y, attrs={"draws": Y_DRAWS}))
    calls.append(lambda: rnd.op("checks.check_weight_normalization",
                                checks.check_weight_normalization,
                                check=lambda res: expect(res.passed, res.measured)))
    # the grids, which set op_tail_ms, alternate with the other calls
    calls = [c for pair in itertools.zip_longest(grids, calls) for c in pair if c is not None]

    g = inp["point_gamma"]
    point_grid = grid(g)

    def query(i):
        # a scalar query collapses the mixture at its own x, the grid at the
        # grid's top, so the two agree to the mixture's weight tolerance
        rnd.op("limitlaw.gstar_cdf", gstar_cdf, g, float(GSTAR_XS[i]),
               check=lambda v: expect(abs(v - point_grid[i]) <= POINT_AGREE,
                                      f"scalar G* {v} vs grid {point_grid[i]}"),
               attrs={"points": 1, "key": "warm"})

    # scalar queries in equal chunks between the other calls, so their median
    # samples the whole round rather than a few seconds of it
    points = inp["gstar_points"]
    chunk = -(-len(points) // (len(calls) + 1))
    for k, c in enumerate([None] + calls):
        if c is not None:
            c()
        for i in points[k * chunk:(k + 1) * chunk]:
            query(i)


# ---------------------------------------------------------------------------
# cli-cold

# bit-stable subcommands must reproduce the recorded bytes; the rest pass
# through libm or FFT kernels and get a tolerance per float
BYTE_EXACT = {"exact-tail", "trimmed-tail", "conv-ratio", "centering", "quantile"}
FFT_ABS_TOL = 1e-9
LIBM_REL_TOL = 1e-12
FFT_BASED = {"gstar-cdf", "merge-check", "limit-cdf"}
CLI_POOL_SIZE = 8


CLI_PLAN = ("tail", "quantile", "exact-tail", "merge-check", "conv-ratio", "chernoff",
            "centering", "xi", "gstar-cdf", "limit-cdf", "trimmed-tail", "tail", "exact-tail",
            "trimmed-tail", "quantile", "chernoff")
CLI_TIMEOUT_S = 120


def _lin_spec(lo: int, width: int, count: int) -> str:
    # one token, so a negative lo is not read as a flag
    return f"--x-lin={lo}:{lo + width}:{count}"


def cli_pool() -> dict:
    """Subcommand -> the argv lists a seed can draw from (fixed, recorded)."""
    pool_rng = random.Random(20151008)
    makers = {
        "tail": lambda: ["tail", "--x", repr(round(pool_rng.uniform(2, 5000), 3))],
        "quantile": lambda: ["quantile", "--u", repr(round(pool_rng.uniform(0, 0.999), 6))],
        "exact-tail": lambda: ["exact-tail", "--n", str(pool_rng.randint(2, 8)),
                               "--x", str(pool_rng.randint(16, 2000))],
        "conv-ratio": lambda: ["conv-ratio", "--x", str(pool_rng.randint(64, 4000)),
                               "--x", str(pool_rng.randint(64, 4000))],
        "chernoff": lambda: ["chernoff", "--n", "1024", "--j", str(pool_rng.randint(0, 2)),
                             "--x", repr(round(pool_rng.uniform(0.1, 8), 3))],
        "centering": lambda: ["centering", "--n", str(pool_rng.randint(8, 5000)),
                              "--gamma", repr(round(pool_rng.uniform(0.5, 1.0), 4))],
        "xi": lambda: ["xi", "--gamma", repr(round(pool_rng.uniform(0.51, 1.0), 4))],
        "gstar-cdf": lambda: ["gstar-cdf", "--gamma", repr(round(pool_rng.uniform(0.6, 1.0), 3)),
                              "--x", repr(round(pool_rng.uniform(-2, 12), 3))],
        "trimmed-tail": lambda: ["trimmed-tail", "--n", "5", "--r", "1",
                                 "--x", str(pool_rng.randint(20, 600))],
        "merge-check": lambda: ["merge-check", "--n", "64", "--reps", "20000",
                                "--seed", str(pool_rng.randrange(2**31))],
        "limit-cdf": lambda: ["limit-cdf", "--gamma", "1", _lin_spec(pool_rng.randint(-4, 2), 12, 9)],
    }
    return {sub: [make() for _ in range(CLI_POOL_SIZE)] for sub, make in makers.items()}


def cli_inputs(rng: random.Random) -> dict:
    pool = cli_pool()
    plan = list(CLI_PLAN)
    rng.shuffle(plan)
    return {"argvs": [rng.choice(pool[sub]) for sub in plan]}


_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare_cli(sub: str, got: str, want: str) -> None:
    """Raise Mismatch unless got matches the recorded output of subcommand sub."""
    if sub in BYTE_EXACT:
        expect(got == want, f"{sub}: {got!r} != recorded {want!r}")
        return
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    expect(len(a) == len(b), f"{sub}: output shape changed: {got!r}")
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0 or not any(c in y for c in ".eE"):
            expect(x == y, f"{sub}: {x!r} != recorded {y!r}")
        elif sub in FFT_BASED:
            expect(abs(float(x) - float(y)) <= FFT_ABS_TOL, f"{sub}: {x} vs recorded {y}")
        else:
            expect(math.isclose(float(x), float(y), rel_tol=LIBM_REL_TOL), f"{sub}: {x} vs {y}")


def cli_cold(argv: list) -> str:
    """One `python -m petersburg.cli` process; returns its stdout."""
    res = subprocess.run([sys.executable, "-m", "petersburg.cli", *argv],
                         capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"exit {res.returncode}: {res.stderr.strip()[-300:]}")
    return res.stdout


def cli_inproc(argv: list) -> str:
    """The same argv through petersburg.cli.main in this process."""
    from petersburg.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return buf.getvalue()


def _run_argvs(rnd, argvs: list, exp: dict, how: str, fn) -> None:
    for argv in argvs:
        sub = argv[0]
        rnd.op(f"cli.{sub}.{how}", fn, argv,
               check=lambda out, sub=sub, argv=argv: compare_cli(sub, out, exp["cli"][" ".join(argv)]))


def run_cli_cold(rnd, inp: dict, exp: dict) -> None:
    _run_argvs(rnd, inp["argvs"], exp, "cold", cli_cold)


def probe_cli_inproc(rnd, inp: dict, exp: dict) -> None:
    """Traced rounds only: the cold argvs again, in process, after the timed part.

    Caches fill as the calls go, so they run sorted by subcommand, the same
    order for every seed: limit-cdf builds the W_1 curve that merge-check
    then reuses."""
    _run_argvs(rnd, sorted(inp["argvs"]), exp, "inproc", cli_inproc)


def probe_cli_import(rnd) -> None:
    """A bare `import petersburg.cli` in a child process."""
    rnd.call("cli.import", subprocess.run, [sys.executable, "-c", "import petersburg.cli"],
             check=True, timeout=CLI_TIMEOUT_S)


INPUTS = {"exact-lattice": exact_inputs, "mc-merge": mc_inputs,
          "limit-curves": limit_inputs, "cli-cold": cli_inputs}
RUN = {"exact-lattice": run_exact_lattice, "mc-merge": run_mc_merge,
       "limit-curves": run_limit_curves, "cli-cold": run_cli_cold}
