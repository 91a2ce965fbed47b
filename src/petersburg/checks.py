"""End-to-end consistency checks tying the engines together.

Each check compares independent routes to the same quantity (closed form vs
exact table, exact tail vs asymptote, simulation vs limit curve) and returns
a CheckResult with the pinned target and the measured outcome.  The test
suite asserts one check per test; the repro-all subcommand runs the same
functions and renders a report.  A check's keyword arguments are its seeds,
replicate and input counts only, so a config file can override them; its
pass bounds are module constants, printed in the target text, that no
config can move.
"""

from __future__ import annotations

import inspect
import math
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from petersburg.asymptotics import gen_snr_tail_rhs, ratio_table, subexp_limits
from petersburg.exact import (
    conv_ratio_curve,
    dyadic_grid,
    enum_oracle,
    sum_tail_exact,
    trimmed_tail_exact,
    two_sum_tail_closed,
)
from petersburg.limitlaw import (
    curve_moments,
    log_cf_f,
    p_weight,
    r_weight,
    sample_Y,
    wjg_cdf_curve,
    y_tail_parts,
)
from petersburg.montecarlo import (
    EmpiricalTail,
    chernoff_check,
    histogram_fig1,
    merge_check,
    side_lobe_stats,
    trimmed_merge_check,
)
from petersburg.stpdist import (
    GameParams,
    centering,
    centering_closed,
    chernoff_h,
    frac_log2,
    xi_and_f,
)

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "DEFAULT_CONFIG",
    "check_two_sum_closed_form",
    "check_trimmed_exact_vs_enumeration",
    "check_trimmed_tail_asymptote",
    "check_oscillation_band",
    "check_two_sum_convolution_ratio",
    "check_weight_normalization",
    "check_cf_moments_and_backends",
    "check_merging_ks",
    "check_y_tail_bracket",
    "check_centering_identities",
    "check_chernoff_bounds",
    "check_generalized_game",
    "check_figure_shapes",
    "check_output_determinism",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    target: str
    measured: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}  {self.name}: {self.measured}  [target: {self.target}]"


def check_two_sum_closed_form() -> CheckResult:
    """Closed form for P{S_2 > 2^k + 2^l} against the exact table."""
    total = bad = 0
    for k in range(1, 13):
        for ell in range(k, 13):
            total += 1
            if two_sum_tail_closed(k, ell) != sum_tail_exact(2, (1 << k) + (1 << ell)):
                bad += 1
    return CheckResult(
        "two_sum_closed_form",
        bad == 0,
        "exact rational equality for all 1 <= k <= l <= 12",
        f"{total - bad}/{total} pairs equal",
    )


def check_trimmed_exact_vs_enumeration() -> CheckResult:
    """Trimmed-sum DP against brute multiset enumeration on small games."""
    total = bad = 0
    for n in range(1, 5):
        for r in range(0, min(3, n)):
            for x in range(2, 65):
                total += 1
                if trimmed_tail_exact(n, r, x) != enum_oracle(n, r, x):
                    bad += 1
    return CheckResult(
        "trimmed_exact_vs_enumeration",
        bad == 0,
        "exact rational equality for n <= 4, r <= 2, x in 2..64",
        f"{total - bad}/{total} points equal",
    )


# pass bounds of the checks below, in the order the checks run
_RATIO_LO, _RATIO_HI = 0.98, 1.02
_BAND_LO, _BAND_HI, _ENDPOINT_TOL = 0.999, 2.1, 0.02
_CONV_TOL = 0.01
_WEIGHT_TOL = 1e-12
_MOMENT_TOL, _CF_TOL = 1e-6, 1e-10
_KS_TOL = 0.05
_Y_RATIO_LO, _Y_RATIO_HI, _Y_BAND_LO, _Y_BAND_HI = 0.9, 1.1, 0.9, 2.2
_CENTERING_TOL, _XI_TOL = 1e-12, 1e-10
_GEN_RATIO_LO, _GEN_RATIO_HI, _GEN_FAR_TOL = 0.85, 1.15, 0.015
_LOBE_RATIO_MAX = 0.25


def check_trimmed_tail_asymptote() -> CheckResult:
    """Exact trimmed tail over its first-order asymptote at mid-octave points."""
    rows = ratio_table(4, 1, [3 * (1 << m) for m in range(10, 15)])
    ratios = [row[4] for row in rows]
    ok = all(_RATIO_LO <= v <= _RATIO_HI for v in ratios)
    return CheckResult(
        "trimmed_tail_asymptote",
        ok,
        f"exact/asymptote in [{_RATIO_LO}, {_RATIO_HI}] at x = 3*2^m, m = 10..14",
        f"ratios {min(ratios):.5f}..{max(ratios):.5f}",
    )


# Oscillation extremes of x P{S_n > x} / n.  The lower envelope is approached
# just above a power of two (where the inner correction is still small but the
# leading factor has reset), the upper one just below.  The x values below sit
# at the measured minima for each n; the band check covers two full octaves.
_LIMINF_POINTS = {2: 66192, 4: 132120, 16: 529900}
_LIMSUP_X = 8191


def check_oscillation_band() -> CheckResult:
    worst_lo = worst_hi = 0.0
    ok = True
    for n, x in _LIMINF_POINTS.items():
        v = x * float(sum_tail_exact(n, x)) / n
        worst_lo = max(worst_lo, abs(v - 1.0))
        ok = ok and abs(v - 1.0) <= _ENDPOINT_TOL
    for n in (2, 4, 16):
        v = _LIMSUP_X * float(sum_tail_exact(n, _LIMSUP_X)) / (2 * n)
        worst_hi = max(worst_hi, abs(v - 1.0))
        ok = ok and abs(v - 1.0) <= _ENDPOINT_TOL
    band = []
    for n in (2, 4, 16):
        for x in dyadic_grid(12, 14, 33):
            if not 0.1 < frac_log2(x) < 0.9:
                continue
            band.append(x * float(sum_tail_exact(n, x)) / n)
    ok = ok and all(_BAND_LO <= v <= _BAND_HI for v in band)
    return CheckResult(
        "oscillation_band",
        ok,
        f"endpoints within {_ENDPOINT_TOL} of n and 2n; band in [{_BAND_LO}, {_BAND_HI}]",
        f"endpoint devs {worst_lo:.4f}/{worst_hi:.4f}; band {min(band):.4f}..{max(band):.4f} over {len(band)} points",
    )


def check_two_sum_convolution_ratio() -> CheckResult:
    """P{S_2 > x} / P{X > x} hits 4 at a power of two and 2 just below it."""
    rows = dict(conv_ratio_curve([4096.0, 4095.0]))
    d_hi = abs(rows[4096.0] / 4.0 - 1.0)
    d_lo = abs(rows[4095.0] / 2.0 - 1.0)
    return CheckResult(
        "two_sum_convolution_ratio",
        d_hi <= _CONV_TOL and d_lo <= _CONV_TOL,
        f"ratio(4096)/4 and ratio(4095)/2 within {_CONV_TOL} of 1",
        f"ratio(4096) = {rows[4096.0]:.6f}, ratio(4095) = {rows[4095.0]:.6f}",
    )


def check_weight_normalization(weight_count: int = 50, weight_seed: int = 23) -> CheckResult:
    """Level weights sum to one, and so do the tie counts at each level."""
    rng = np.random.default_rng(weight_seed)
    worst_p = worst_r = 0.0
    for _ in range(weight_count):
        j = int(rng.integers(-6, 41))
        g = 0.5 + 0.5 * float(rng.uniform())
        total_p = sum(p_weight(i, g) for i in range(-8, 61))
        worst_p = max(worst_p, abs(total_p - 1.0))
        total_r = sum(r_weight(j, g, m) for m in range(1, 400))
        worst_r = max(worst_r, abs(total_r - 1.0))
    ok = worst_p <= _WEIGHT_TOL and worst_r <= _WEIGHT_TOL
    return CheckResult(
        "weight_normalization",
        ok,
        f"both families sum to 1 within {_WEIGHT_TOL:g} for {weight_count} random (j, gamma)",
        f"worst level-weight error {worst_p:.2e}, worst tie-count error {worst_r:.2e}",
    )


def check_cf_moments_and_backends() -> CheckResult:
    """Inverted curve moments against mean log2(eta), variance 2*eta; and the
    atom series of the log characteristic exponent, which every CF evaluation
    uses, against its exact-rational Taylor oracle."""
    cases = ((0, 1.0), (1, 0.75), (-1, 0.6))
    worst_mom = 0.0
    for j, g in cases:
        eta = 2.0**j / g
        mean, var = curve_moments(wjg_cdf_curve(j, g))
        worst_mom = max(worst_mom, abs(mean - math.log2(eta)), abs(var - 2.0 * eta))
    ts = np.linspace(0.25, 12.0, 48)
    worst_cf = 0.0
    for j, g in cases:
        eta = 2.0**j / g
        d = np.abs(log_cf_f(eta, ts, backend="taylor") - log_cf_f(eta, ts, backend="atoms"))
        worst_cf = max(worst_cf, float(d.max()))
    ok = worst_mom <= _MOMENT_TOL and worst_cf <= _CF_TOL
    return CheckResult(
        "cf_moments_and_backends",
        ok,
        f"moments within {_MOMENT_TOL:g}; backends agree within {_CF_TOL:g}",
        f"worst moment error {worst_mom:.2e}, worst backend gap {worst_cf:.2e}",
    )


def check_merging_ks(merge_reps: int = 200_000, merge_seed: int = 11) -> CheckResult:
    """KS distance to the limit curve shrinks from n = 64 to n = 4096 and ends
    below tolerance, for the full sum and for the max-trimmed sum."""
    ks_small = merge_check(64, reps=merge_reps, seed=merge_seed)["ks"]
    ks_big = merge_check(4096, reps=merge_reps, seed=merge_seed)["ks"]
    kst_small = trimmed_merge_check(64, reps=merge_reps, seed=merge_seed)["ks"]
    kst_big = trimmed_merge_check(4096, reps=merge_reps, seed=merge_seed)["ks"]
    ok = ks_big <= _KS_TOL and kst_big <= _KS_TOL and ks_big < ks_small and kst_big < kst_small
    return CheckResult(
        "merging_ks",
        ok,
        f"KS at n = 4096 below {_KS_TOL} and below the n = 64 value, both statistics",
        f"full {ks_small:.4f} -> {ks_big:.4f}; trimmed {kst_small:.4f} -> {kst_big:.4f}",
    )


def check_y_tail_bracket(
    y_reps: int = 10_000_000, y_truncation: int = 10_000, y_seed: int = 13
) -> CheckResult:
    """Limit-series tails sampled by sample_Y against the bracket formula,
    whose inner terms come from the W_1 curve: two independent engines."""
    emp = EmpiricalTail.from_samples(sample_Y(0, 1.0, truncation=y_truncation, reps=y_reps,
                                              seed=y_seed))
    ratios = [emp.tail(x) / y_tail_parts(0, 1.0, x)["value"] for x in (96.0, 192.0)]
    band = [x * emp.tail(x) for x in dyadic_grid(4, 10, 4)]
    ok = all(_Y_RATIO_LO <= v <= _Y_RATIO_HI for v in ratios)
    ok = ok and all(_Y_BAND_LO <= v <= _Y_BAND_HI for v in band)
    return CheckResult(
        "y_tail_bracket",
        ok,
        f"empirical/formula in [{_Y_RATIO_LO}, {_Y_RATIO_HI}] at x = 96, 192; "
        f"x*tail in [{_Y_BAND_LO}, {_Y_BAND_HI}] on the dyadic sweep",
        f"ratios {ratios[0]:.4f}, {ratios[1]:.4f}; sweep {min(band):.4f}..{max(band):.4f}",
    )


def check_centering_identities(
    centering_count: int = 200, xi_count: int = 100, centering_seed: int = 29
) -> CheckResult:
    ok_anchor = centering(8, 1.0, 0) == 3.125 and xi_and_f(0.75)[1] == 1.0 / 3.0
    rng = np.random.default_rng(centering_seed)
    worst_c = 0.0
    for _ in range(centering_count):
        n = int(rng.integers(1, 5001))
        g = 0.5 + 0.5 * float(rng.uniform(1e-9, 1.0))
        worst_c = max(worst_c, abs(centering(n, g, 0) - centering_closed(n, g)))
    worst_f = 0.0
    for _ in range(xi_count):
        g = 0.5 + 0.5 * float(rng.uniform(1e-9, 1.0))
        xi, f = xi_and_f(g)
        worst_f = max(worst_f, abs(f - (xi + math.log2(g) - 1.0 + 1.0 / g)))
    ok = ok_anchor and worst_c <= _CENTERING_TOL and worst_f <= _XI_TOL
    return CheckResult(
        "centering_identities",
        ok,
        f"anchors exact; sum vs closed form within {_CENTERING_TOL:g}; "
        f"f vs xi identity within {_XI_TOL:g}",
        f"anchors {'ok' if ok_anchor else 'BROKEN'}; "
        f"worst centering gap {worst_c:.2e}, worst identity gap {worst_f:.2e}",
    )


def check_chernoff_bounds(
    chernoff_reps: int = 1_000_000, chernoff_seed: int = 17
) -> CheckResult:
    """No empirical exceedance of the exponential bound, and the rate function
    sits between its two quadratic envelopes."""
    violations = 0
    rows = 0
    for j in (0, 1):
        res = chernoff_check(1024, j, reps=chernoff_reps, seed=chernoff_seed)
        rows += len(res["rows"])
        violations += sum(1 for row in res["rows"] if row["violation"])
    xs = np.linspace(1e-3, 50.0, 4000)
    h = np.array([chernoff_h(float(x)) for x in xs])
    lo = xs * xs / (4.0 + xs)
    hi = xs * xs / 2.0
    slack = 1e-12 * np.maximum(1.0, h)
    envel_ok = bool(np.all(h >= lo - slack) and np.all(h <= hi + slack))
    ok = violations == 0 and envel_ok
    return CheckResult(
        "chernoff_bounds",
        ok,
        "zero bound violations at n = 1024, j in {0, 1}; x^2/(4+x) <= h(x) <= x^2/2",
        f"{violations}/{rows} violations; envelopes {'hold' if envel_ok else 'BROKEN'}",
    )


def check_generalized_game() -> CheckResult:
    """Subexponential limits snap to (2, 3) at p = 1/3, and the generalized
    tail asymptote tracks brute enumeration along the payoff scale."""
    params = GameParams(1.0, 1.0 / 3.0)
    lims = subexp_limits(params)
    ok_lims = lims == (2.0, 3.0)
    x_near, x_far = 10.0, 10.0 * 1.5**8
    r_near = float(enum_oracle(3, 0, x_near, params=params)) / gen_snr_tail_rhs(
        3, 0, x_near, params=params
    ).value
    r_far = float(enum_oracle(3, 0, x_far, params=params)) / gen_snr_tail_rhs(
        3, 0, x_far, params=params
    ).value
    ok = ok_lims and _GEN_RATIO_LO <= r_near <= _GEN_RATIO_HI and abs(r_far - 1.0) <= _GEN_FAR_TOL
    return CheckResult(
        "generalized_game",
        ok,
        f"limits == (2, 3); near ratio in [{_GEN_RATIO_LO}, {_GEN_RATIO_HI}]; "
        f"far ratio within {_GEN_FAR_TOL} of 1",
        f"limits {lims}; ratio(10) = {r_near:.5f}, ratio(10*1.5^8) = {r_far:.5f}",
    )


def check_figure_shapes(fig1_reps: int = 1_000_000, fig_seed: int = 19) -> CheckResult:
    """Trimming kills the side lobes of the log-sum histogram, and the exact
    tail of S_16 drops strictly at every power of two."""
    hist = histogram_fig1(n=128, reps=fig1_reps, seed=fig_seed)
    stats = side_lobe_stats(hist)
    ok_lobes = stats["ratio"] < _LOBE_RATIO_MAX and stats["lobes_untrimmed"] >= 2
    drops_ok = all(
        sum_tail_exact(16, (1 << m) - 1) > sum_tail_exact(16, 1 << m) for m in range(6, 13)
    )
    return CheckResult(
        "figure_shapes",
        ok_lobes and drops_ok,
        f"trimmed/untrimmed lobe mass < {_LOBE_RATIO_MAX} with >= 2 lobes; "
        "strict tail drop at 2^m, m = 6..12",
        f"lobe ratio {stats['ratio']:.4f}, {stats['lobes_untrimmed']} lobes; "
        f"drops {'all strict' if drops_ok else 'BROKEN'}",
    )


def _cli_output(args: list, problems: list, out: Path | None = None) -> bytes:
    """Bytes a fresh petersburg process writes to out, or to stdout when out
    is None; a failed run is noted in problems and gives b""."""
    cmd = [sys.executable, "-m", "petersburg.cli", *args]
    if out is not None:
        cmd += ["--out", str(out)]
    res = subprocess.run(cmd, capture_output=True, timeout=600)
    if res.returncode != 0:
        problems.append(f"{args[0]} exit {res.returncode}")
        return b""
    return out.read_bytes() if out is not None else res.stdout


def check_output_determinism(det_reps: int = 30_000, det_seed: int = 7) -> CheckResult:
    """Byte-identical stochastic output between fresh processes and between
    --out and stdout: mc-sim once to a file and once to stdout, merge-check
    twice to stdout."""
    problems = []
    sim = ["mc-sim", "--n", "64", "--r", "1", "--reps", str(det_reps), "--seed", str(det_seed)]
    merge = ["merge-check", "--n", "64", "--reps", "20000", "--seed", str(det_seed)]
    with tempfile.TemporaryDirectory() as td:
        pairs = (
            ("mc-sim", _cli_output(sim, problems, Path(td) / "sim.csv"), _cli_output(sim, problems)),
            ("merge-check", _cli_output(merge, problems), _cli_output(merge, problems)),
        )
    for name, first, second in pairs:
        if first != second or not first:
            problems.append(f"{name} outputs differ")
    ok = not problems
    return CheckResult(
        "output_determinism",
        ok,
        "identical bytes between processes and between --out and stdout",
        "both subcommands byte-identical" if ok else "; ".join(problems),
    )


_CHECKS = (
    check_two_sum_closed_form,
    check_trimmed_exact_vs_enumeration,
    check_trimmed_tail_asymptote,
    check_oscillation_band,
    check_two_sum_convolution_ratio,
    check_weight_normalization,
    check_cf_moments_and_backends,
    check_merging_ks,
    check_y_tail_bracket,
    check_centering_identities,
    check_chernoff_bounds,
    check_generalized_game,
    check_figure_shapes,
    check_output_determinism,
)

# name, function, config keys passed through as keyword arguments; the keys
# and their defaults are each check's own keyword parameters
ALL_CHECKS = tuple(
    (fn.__name__.removeprefix("check_"), fn, tuple(inspect.signature(fn).parameters))
    for fn in _CHECKS
)
DEFAULT_CONFIG = {
    key: param.default
    for fn in _CHECKS
    for key, param in inspect.signature(fn).parameters.items()
}
