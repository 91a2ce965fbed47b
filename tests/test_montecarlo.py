"""Simulation engine: determinism, agreement with exact tails, and the
figure/check helpers at desk-scale replication counts."""

import hashlib
import re

import numpy as np
import pytest

from oracle_reference import FixedUniforms, frexp_levels
from petersburg import montecarlo
from petersburg.exact import oscillation_curve_fig2, trimmed_tail_exact
from petersburg.limitlaw import sample_Y
from petersburg.montecarlo import (
    EmpiricalTail,
    SimPlan,
    _draw_trimmed_sums,
    chernoff_check,
    histogram_fig1,
    max_pmf_check,
    side_lobe_stats,
    simulate_trimmed,
    trimmed_merge_check,
)
from petersburg.stpdist import SEED_BLOCK, GameParams, seed_blocks


def test_simplan_validation():
    with pytest.raises(ValueError):
        SimPlan(n=0)
    with pytest.raises(ValueError):
        SimPlan(n=3, r=3)
    with pytest.raises(ValueError):
        SimPlan(n=3, r=-1)
    with pytest.raises(ValueError):
        SimPlan(n=3, reps=0)


def test_empirical_tail_lookup():
    et = EmpiricalTail.from_samples([3.0, 1.0, 2.0])
    assert np.array_equal(et.samples, [1.0, 2.0, 3.0])
    assert et.reps == 3
    assert et.tail(0.5) == 1.0
    assert et.tail(1.0) == pytest.approx(2.0 / 3.0)
    assert et.tail(2.5) == pytest.approx(1.0 / 3.0)
    assert et.tail(3.0) == 0.0
    assert et.ci_halfwidth(2.5) > 0.0


def test_same_plan_same_samples():
    plan = SimPlan(n=5, r=1, reps=10_000, master_seed=42)
    a = simulate_trimmed(plan)
    b = simulate_trimmed(plan)
    assert np.array_equal(a.samples, b.samples)
    c = simulate_trimmed(SimPlan(n=5, r=1, reps=10_000, master_seed=43))
    assert not np.array_equal(a.samples, c.samples)


def test_seed_blocks_give_prefix_stability():
    # replicate i depends on the seed and i alone, not on total reps
    a = _draw_trimmed_sums(SimPlan(n=3, r=1, reps=70_000, master_seed=3))
    b = _draw_trimmed_sums(SimPlan(n=3, r=1, reps=100_000, master_seed=3))
    assert np.array_equal(a[:65536], b[:65536])
    # a numpy integer is an integer seed
    assert next(seed_blocks(np.int64(3), 1))[1] == 1


def test_seed_blocks_build_children_on_demand():
    # block i draws from SeedSequence(seed, spawn_key=(i,)), the i-th spawned
    # child bit for bit, built when the block starts: 2^62 replicates cost
    # nothing up front
    blocks = seed_blocks(5, 1 << 62)
    for child in np.random.SeedSequence(5).spawn(3):
        rng, rows = next(blocks)
        assert rows == SEED_BLOCK
        assert np.array_equal(rng.random(4), np.random.default_rng(child).random(4))


@pytest.mark.parametrize("seed, reps, message", [
    (1, 0, "reps must be >= 1, got 0"),
    (1, -5, "reps must be >= 1, got -5"),
    (-1, 10, "seed must be a non-negative integer, got -1"),
    (None, 10, "seed must be a non-negative integer, got None"),
    (1.5, 10, "seed must be a non-negative integer, got 1.5"),
], ids=["reps-zero", "reps-negative", "seed-negative", "seed-none", "seed-float"])
def test_seed_blocks_refuse_bad_seed_and_reps_when_called(seed, reps, message):
    # the refusal comes from the call itself, before any block is drawn
    with pytest.raises(ValueError, match=re.escape(message)):
        seed_blocks(seed, reps)
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_Y(0, 1.0, truncation=100, reps=reps, seed=seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        SimPlan(n=3, reps=reps, master_seed=seed)


def _pmf_raw():
    res = max_pmf_check(1024, reps=40_000, seed=6)
    return np.array([row["empirical"] for row in res["rows"]] + [res["outside_mass"]])


def _chernoff_raw():
    res = chernoff_check(1024, 0, reps=40_000, seed=7)
    return np.array([row["empirical"] for row in res["rows"]])


def _fig1_raw():
    hist = histogram_fig1(1024, reps=40_000, seed=8)
    return np.concatenate([hist["counts_untrimmed"], hist["counts_trimmed"]])


# SHA-256 of each sampler's raw output, recorded before the samplers shared
# one seed-block loop.  reps = 70_000 spans two seed blocks; n = 1024 with
# reps = 40_000 runs its one block as 625 sub-blocks of 2^16 draws (two of
# 2^25 when recorded), so the sub-block size cannot move a draw.  The
# classical digests were recorded with the frexp level formula, before the
# payoffs were read off the raw exponent bits.
_DRAW_DIGESTS = {
    "trimmed-n3": (
        lambda: _draw_trimmed_sums(SimPlan(n=3, r=1, reps=70_000, master_seed=3)),
        "56aba3d47f93bd26fbb2457d33b1611fc9055eba71825677887fe2ff68424a37",
    ),
    "generalized-n4": (
        lambda: _draw_trimmed_sums(SimPlan(n=4, r=0, reps=70_000, master_seed=5),
                                   GameParams(1.0, 1.0 / 3.0)),
        "e80c00e74d245ceadff5229b56442a241331a144289dae68d0a8a3ae9c082484",
    ),
    "sample-y": (
        lambda: sample_Y(1, 0.75, truncation=500, reps=70_000, seed=9),
        "2b014bc54850f9f827f9c2c3696b1125623aa420ce7a808c4a67c85d7dfcd5da",
    ),
    "trimmed-n1024": (
        lambda: _draw_trimmed_sums(SimPlan(n=1024, r=1, reps=40_000, master_seed=4)),
        "9148ced7d49e66f445465da4aec35b89605c6e70cbbcc06ef29d6e98e813d2b8",
    ),
    "max-pmf-n1024": (
        _pmf_raw,
        "55fc95a9e36c4b1b23f690c8f3c070ea999c5cafd7bc856ba029e04bfac202ec",
    ),
    "chernoff-n1024": (
        _chernoff_raw,
        "d08eb846ec444a89a2338969f2f86b14c5d44602309875e0df551ae1bac74e2a",
    ),
    "fig1-n1024": (
        _fig1_raw,
        "e63f4668ab8bbb4bb5dc7e353cb84b805b4c920b3ebbed58e7fbf18cc288039c",
    ),
}


@pytest.mark.parametrize("name", sorted(_DRAW_DIGESTS))
def test_sampler_draws_are_pinned(name):
    draw, digest = _DRAW_DIGESTS[name]
    raw = np.ascontiguousarray(draw())
    assert hashlib.sha256(raw.tobytes()).hexdigest() == digest


def test_trimmed_rows_past_2_53_keep_partition_bits(monkeypatch):
    # r = 1 subtracts the row max from the row sum, which is exact below 2^53;
    # rows reaching it must come out as the partition sum does.  U = 1 - 2^-53
    # forces the payoff 2^54, U = 1/2 the payoff 4.
    top = 1.0 - 2.0**-53
    u = np.array([[top, top, 0.5, 0.5],
                  [top, 0.0, 0.0, 0.5],
                  [0.5, 0.25, 0.0, 0.75]])
    monkeypatch.setattr(montecarlo, "seed_blocks",
                        lambda seed, reps, row_len: iter([(FixedUniforms(u), reps)]))
    got = _draw_trimmed_sums(SimPlan(n=4, r=1, reps=3))
    pay = np.ldexp(1.0, frexp_levels(1.0 - u))
    assert pay[0].sum() >= 2.0**53 and pay[1].sum() >= 2.0**53 and pay[2].sum() < 2.0**53
    want = np.partition(pay, 2, axis=1)[:, :3].sum(axis=1)
    assert np.array_equal(got, want)
    # 2^54 + 2^54 + 4 + 4 rounds to 2^55, so the plain difference would lose the 8
    assert got[0] == 2.0**54 + 8.0 != pay[0].sum() - pay[0].max()


def test_centered_mode_rejects_generalized():
    with pytest.raises(ValueError):
        simulate_trimmed(SimPlan(n=4), params=GameParams(1.0, 1.0 / 3.0), centered=True)


def test_empirical_tails_match_exact():
    # every plan and point agrees with the dyadic table within MC noise
    worst = 0.0
    for n in (2, 4, 16):
        for r in range(0, min(3, n)):
            et = simulate_trimmed(SimPlan(n=n, r=r, reps=200_000, master_seed=5))
            for x in (16, 256, 768, 16384):
                exact = float(trimmed_tail_exact(n, r, x).as_fraction())
                ci = et.ci_halfwidth(x)
                worst = max(worst, abs(et.tail(x) - exact) / ci)
    assert worst <= 1.35  # ci is 3 sigma; allow one point to graze 4


def test_trim_all_but_min_is_squared_tail():
    # n = 2, r = 1 keeps the smaller payoff; its tail is the square
    et = simulate_trimmed(SimPlan(n=2, r=1, reps=200_000, master_seed=5))
    assert abs(et.tail(5.0) - 1.0 / 16.0) <= et.ci_halfwidth(5.0)


def test_trimmed_merging_improves_along_subsequence():
    # constant gamma_n = 3/4 along n = 0.75 * 2^k
    ks = [trimmed_merge_check(int(0.75 * 2**k), reps=50_000, seed=4)["ks"]
          for k in (8, 10, 12)]
    assert ks[0] > ks[1] > ks[2]
    assert ks[2] < 0.012


def test_max_pmf_matches_level_weights():
    res = max_pmf_check(1024, reps=200_000, seed=6)
    for row in res["rows"]:
        assert abs(row["deviation"]) <= 6.0 * row["sigma"]
    assert res["outside_mass"] < 0.02


def test_chernoff_check_no_violations():
    res = chernoff_check(64, 1, reps=100_000, seed=8)
    assert res["eta"] == 2.0  # gamma_64 = 1, j = 1
    for row in res["rows"]:
        assert not row["violation"]
        assert row["empirical"] <= row["bound"] + 3.0 * row["sigma"]


def test_fig1_trimming_kills_side_lobes():
    hist = histogram_fig1(reps=200_000, seed=12)
    stats = side_lobe_stats(hist)
    assert stats["ratio"] < 0.25
    assert stats["lobes_untrimmed"] >= 2
    assert stats["mass_trimmed"] < stats["mass_untrimmed"]
    assert hist["counts_untrimmed"].sum() > 0


def test_fig2_band_and_drops():
    n = 16
    rows = oscillation_curve_fig2(n=n, m_lo=4, m_hi=10)
    by_x = dict(rows)
    vals = np.array([v for _, v in rows])
    assert vals.min() >= 0.999 * n
    assert vals.max() <= 4.0 * n
    # the curve drops across powers of two once past the bulk; by x = 512
    # it has flattened onto its oscillation band, so stop at m = 8
    for m in (6, 7, 8):
        assert by_x[float(2**m - 1)] > by_x[float(2**m)]
    xs = [x for x, _ in rows]
    assert xs == sorted(xs)
    assert float(2**4) in by_x and float(2**10 - 1) in by_x

