"""Single-payoff law: tails, quantiles, dyadic helpers, seeded sampling."""

import copy
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracle_reference import FixedUniforms, frexp_levels, general_single_tail, series_center_fsum
from petersburg.stpdist import (
    CLASSICAL,
    _exponent_payoffs,
    GameParams,
    cdf,
    centering,
    centering_closed,
    floor_log2,
    frac_log2,
    gamma_n,
    payoff_levels,
    psi,
    quantile,
    sample_levels,
    sample_payoffs,
    sample_truncated_payoffs,
    series_center,
    tail,
    truncated_cdf,
    truncated_moment,
)

GEN = GameParams(1.0, 1.0 / 3.0)
HALF = GameParams(0.5, 0.5)


def test_classical_tail_is_dyadic_staircase():
    for k in range(1, 20):
        x = 2.0**k
        assert tail(x) == 2.0**-k
        assert tail(x - 0.5) == 2.0 ** -(k - 1)
        assert tail(x + 1.0) == 2.0**-k


def test_tail_cdf_complement():
    xs = [1.0, 2.0, 3.0, 5.9, 64.0, 100.0, 2.0**20 + 3]
    for params in (CLASSICAL, GEN, HALF):
        for x in xs:
            assert tail(x, params) + cdf(x, params) == pytest.approx(1.0, abs=1e-15)


def test_tail_below_first_payoff_is_one():
    assert tail(1.0) == 1.0
    assert tail(1.999) == 1.0
    assert cdf(0.5) == 0.0
    assert tail(1.4, GEN) == 1.0


def test_generalized_tail_matches_reference_enumeration():
    # exact rational reference for the float-parameter law
    for x in (1.6, 2.0, 2.25, 5.0, 10.0, 11.390625, 57.6650390625, 400.0):
        want = float(general_single_tail(x, GEN.p))
        assert tail(x, GEN) == pytest.approx(want, rel=1e-12)


def test_half_alpha_tail_decays_at_double_rate():
    # alpha = 1/2 payoffs are squares of the classical ones
    for k in range(1, 12):
        x = 4.0**k
        assert tail(x, HALF) == pytest.approx(2.0**-k, rel=1e-12)


def test_quantile_hits_payoff_atoms():
    # u exactly at an atom's cdf belongs to that atom; anything above moves on
    for params in (CLASSICAL, GEN):
        for k in range(1, 25):
            lo = cdf(params.payoff(k) - 0.5, params)
            hi = cdf(params.payoff(k), params)
            mid = (lo + hi) / 2.0
            assert quantile(mid, params) == params.payoff(k)
            assert quantile(hi, params) == params.payoff(k)
    assert quantile(0.0) == 2.0


def test_quantile_snaps_at_atom_boundaries():
    # u one float-step below the atom mass boundary still lands on the atom
    u = 0.75
    assert quantile(math.nextafter(u, 0.0)) == 4.0
    assert quantile(math.nextafter(u, 1.0)) == 8.0


def test_quantile_rejects_bad_u():
    with pytest.raises(ValueError):
        quantile(1.0)
    with pytest.raises(ValueError):
        quantile(-0.1)


def test_psi_and_log_split():
    assert psi(1.0) == 1.0
    assert psi(3.0) == 1.5
    assert psi(2.0**30) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = float(rng.uniform(1e-6, 1e12))
        m = floor_log2(x)
        assert 1.0 <= psi(x) < 2.0
        assert math.ldexp(psi(x), m) == pytest.approx(x, rel=1e-15)
        assert m + frac_log2(x) == pytest.approx(math.log2(x), abs=1e-12)


def test_floor_log2_at_dyadic_points():
    # exact at powers of two, where float log2 rounding is dangerous
    for k in range(-40, 41):
        assert floor_log2(2.0**k) == k
    assert floor_log2(2.0**52 - 1.0) == 51


def test_gamma_n_values_and_range():
    assert gamma_n(1) == 1.0
    assert gamma_n(3) == 0.75
    assert gamma_n(6) == 0.75
    for k in range(0, 20):
        assert gamma_n(2**k) == 1.0
    for n in range(1, 3000):
        g = gamma_n(n)
        assert 0.5 < g <= 1.0


def test_truncated_moment_closed_form():
    for k in range(1, 31):
        assert truncated_moment(1, k) == pytest.approx(k / (1.0 - 2.0**-k), rel=1e-15)
    # second moment by direct summation
    for k in (1, 3, 7):
        direct = sum(4.0**j * 2.0**-j for j in range(1, k + 1)) / (1.0 - 2.0**-k)
        assert truncated_moment(2, k) == pytest.approx(direct, rel=1e-14)


def test_truncated_cdf_renormalizes():
    k = 5
    assert truncated_cdf(2.0**k, k) == 1.0
    assert truncated_cdf(1.0, k) == 0.0
    direct = sum(2.0**-j for j in range(1, 4)) / (1.0 - 2.0**-k)
    assert truncated_cdf(8.0, k) == pytest.approx(direct, rel=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        GameParams(0.0, 0.5)
    with pytest.raises(ValueError):
        GameParams(2.0, 0.5)
    with pytest.raises(ValueError):
        GameParams(1.0, 0.0)
    with pytest.raises(ValueError):
        GameParams(1.0, 1.0)
    assert CLASSICAL.is_classical
    assert not GEN.is_classical
    assert GEN.q == pytest.approx(2.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\), got nan"):
        GameParams(math.nan)
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\), got 0.0"):
        GameParams(p=0.0)


def test_params_are_a_frozen_value():
    # compared and hashed by (alpha, p), immutable, and they survive copies
    assert GameParams() == CLASSICAL == GameParams(p=0.5, alpha=1.0)
    assert GameParams(1.0, 1.0 / 3.0) == GEN != CLASSICAL
    assert GEN != (1.0, 1.0 / 3.0)
    assert len({GameParams(), CLASSICAL, GEN, GameParams(1.0, 1.0 / 3.0)}) == 2
    assert repr(HALF) == "GameParams(alpha=0.5, p=0.5)"
    for name in ("alpha", "p", "q", "other"):
        with pytest.raises(AttributeError):
            setattr(GEN, name, 0.7)
    with pytest.raises(AttributeError):
        del GEN.alpha
    assert (GEN.alpha, GEN.p) == (1.0, 1.0 / 3.0)
    for twin in (pickle.loads(pickle.dumps(GEN)), copy.copy(GEN), copy.deepcopy(GEN)):
        assert type(twin) is GameParams and twin == GEN and hash(twin) == hash(GEN)


def test_payoff_ladder():
    assert CLASSICAL.payoff(5) == 32.0
    assert GEN.payoff(2) == pytest.approx(1.5**2, rel=1e-15)
    assert CLASSICAL.level_prob(3) == 0.125
    assert GEN.level_prob(1) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_sample_levels_match_level_probabilities():
    rng = np.random.default_rng(7)
    levels = sample_levels(200_000, rng)
    assert levels.min() >= 1
    for k in range(1, 9):
        p = 2.0**-k
        emp = float(np.mean(levels == k))
        assert abs(emp - p) <= 4.0 * math.sqrt(p * (1 - p) / levels.size)


def test_generalized_sample_levels():
    rng = np.random.default_rng(11)
    levels = sample_levels(200_000, rng, GEN)
    for k in range(1, 7):
        p = GEN.level_prob(k)
        emp = float(np.mean(levels == k))
        assert abs(emp - p) <= 4.0 * math.sqrt(p * (1 - p) / levels.size)
    pay = sample_payoffs(100, np.random.default_rng(11), GEN)
    assert pay == pytest.approx(1.5 ** levels[:100].astype(float), rel=1e-12)


def test_generalized_payoffs_past_the_float_range_are_inf_without_a_warning():
    # at a tiny alpha every q^(-K/alpha) overflows: +inf lies above every
    # finite threshold, as the payoff does, so no RuntimeWarning is raised
    tiny = GameParams(1e-300, 0.5)
    levels = sample_levels(1000, np.random.default_rng(5), tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pay = sample_payoffs(1000, np.random.default_rng(5), tiny)
    assert np.all(np.isposinf(pay)) and levels.min() >= 1


def test_sample_levels_accepts_shape():
    rng = np.random.default_rng(3)
    block = sample_levels((50, 8), rng)
    assert block.shape == (50, 8)


def test_classical_payoffs_are_exact_powers():
    rng = np.random.default_rng(9)
    levels = sample_levels(1000, rng)
    pay = sample_payoffs(1000, np.random.default_rng(9))
    assert np.array_equal(pay, np.exp2(levels.astype(float)))


def test_truncated_sampling_respects_cap():
    rng = np.random.default_rng(13)
    k = 6
    levels = payoff_levels(sample_truncated_payoffs(k, 200_000, rng))
    assert levels.min() >= 1
    assert levels.max() <= k
    # renormalized level frequencies
    z = 1.0 - 2.0**-k
    for j in range(1, k + 1):
        p = 2.0**-j / z
        emp = float(np.mean(levels == j))
        assert abs(emp - p) <= 4.0 * math.sqrt(p * (1 - p) / levels.size)


def test_classical_tail_equals_generalized_formula():
    # the generalized path at p near 1/2 agrees with the dyadic shortcut away
    # from the payoff atoms (a perturbed p moves the atoms themselves)
    almost = GameParams(1.0, 0.5 + 1e-15)
    for x in (2.2, 3.0, 17.3, 500.0, 5000.0):
        assert tail(x, almost) == pytest.approx(tail(x), rel=1e-9)


def test_exponent_kernel_matches_frexp_oracle_at_powers_of_two():
    # v = 1, 2^-53 and every 2^-k between, with the float next to each on
    # either side: the kernel's power-of-two fold-in against frexp's m = 1/2
    powers = np.ldexp(1.0, -np.arange(0, 54))
    v = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0)])
    v = v[v <= 1.0]
    levels = frexp_levels(v)
    pay = _exponent_payoffs(v.copy())
    assert np.array_equal(pay, np.ldexp(1.0, levels))
    assert pay.max() == 2.0**54


def _check_samplers(u):
    # sample_levels, sample_payoffs and the truncated samplers all read u
    # through the exponent kernel; each must equal the frexp formula of its v
    shape = u.shape
    want = frexp_levels(1.0 - u)
    assert np.array_equal(sample_levels(shape, FixedUniforms(u)), want)
    assert np.array_equal(sample_payoffs(shape, FixedUniforms(u)), np.ldexp(1.0, want))
    for cap in (1, 2, 10, 53):
        want = np.minimum(frexp_levels(1.0 - u * (1.0 - 2.0**-cap)), cap)
        assert np.array_equal(payoff_levels(sample_truncated_payoffs(cap, shape, FixedUniforms(u))),
                              want)
        assert np.array_equal(sample_truncated_payoffs(cap, shape, FixedUniforms(u)),
                              np.ldexp(1.0, want))


def test_samplers_match_frexp_oracle_on_edge_draws():
    # v = 1 - U on U's 2^-53 grid: every 2^-k and its grid neighbours, down to
    # v = 2^-53 (U = 1 - 2^-53, the largest uniform)
    powers = np.ldexp(1.0, -np.arange(0, 54))
    v = np.concatenate([powers, powers - 2.0**-53, powers + 2.0**-53])
    u = 1.0 - v[(v > 0.0) & (v <= 1.0)]
    assert u.min() == 0.0 and u.max() == 1.0 - 2.0**-53
    _check_samplers(u)


def test_samplers_match_frexp_oracle_on_random_draws():
    _check_samplers(np.random.default_rng(17).random(1 << 20))


def test_truncated_sampler_stays_below_cap_one_at_largest_uniform():
    # at k = 1, U = 1 - 2^-53 rounds 1 - U/2 to exactly 1/2, which the
    # exponent kernel reads as level 2; the law conditioned on K <= 1 is the
    # one payoff 2
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert np.array_equal(sample_truncated_payoffs(1, u.shape, FixedUniforms(u)), [2.0, 2.0, 2.0])
    assert np.array_equal(payoff_levels(sample_truncated_payoffs(1, u.shape, FixedUniforms(u))),
                          [1, 1, 1])


def test_series_center_matches_fsum_oracle_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 20_001))
        r = int(rng.integers(0, n + 1))
        gamma = float(rng.choice([1.0, 0.75, 0.5, float(rng.uniform(0.01, 1.0))]))
        assert series_center(r, gamma, n) == series_center_fsum(r, gamma, n), (r, gamma, n)


def test_centering_at_huge_n():
    # dyadic blocks make n = 10^10 cost about fifty terms, not an array of 10^10
    for gamma in (1.0, 0.7):
        assert centering(10**10, gamma) == pytest.approx(centering_closed(10**10, gamma), abs=1e-12)
