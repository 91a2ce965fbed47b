"""First-order tail asymptotes against the exact engine."""

import math

import pytest

from oracle_reference import general_trimmed_tail
from petersburg.asymptotics import (
    TailAsymptote,
    _exact_ratio,
    _gen_sum_tail,
    finer_as_rhs,
    gen_snr_tail_rhs,
    ratio_table,
    snr_tail_rhs,
    subexp_limits,
    uniform_bound_rhs,
)
from petersburg.exact import enum_oracle, sum_tail_exact, trimmed_tail_exact
from petersburg.montecarlo import SimPlan, simulate_trimmed
from petersburg.stpdist import GameParams

GEN = GameParams(1.0, 1.0 / 3.0)

# exact/asymptote at x = 3*2^m, converging to 1 from below as m grows
RATIO_FIXTURES = {
    (4, 1, 8): 0.980125177366999,
    (4, 1, 11): 0.9974114699330089,
    (4, 1, 14): 0.9996747248413479,
    (8, 2, 8): 0.9102005963631217,
    (8, 2, 11): 0.9858764939099323,
    (8, 2, 14): 0.9981773884391294,
}


def test_exact_over_asymptote_converges():
    for (n, r, m), want in RATIO_FIXTURES.items():
        x = 3 * 2**m
        got = float(trimmed_tail_exact(n, r, x)) / snr_tail_rhs(n, r, x).value
        assert got == pytest.approx(want, rel=1e-12), (n, r, m)
    # monotone approach to 1 along each fixture family
    for n, r in ((4, 1), (8, 2)):
        seq = [RATIO_FIXTURES[(n, r, m)] for m in (8, 11, 14)]
        assert seq == sorted(seq)
        assert seq[-1] > 0.995


def test_asymptote_structure():
    a = snr_tail_rhs(4, 1, 3 * 2**10)
    assert isinstance(a, TailAsymptote)
    assert a.value == a.leading * a.correction
    assert a.inner_backend == "exact"
    assert a.correction > 1.0
    # thresholds far past 2^20 stay on the exact engine
    far = snr_tail_rhs(4, 1, 3 * 2**40)
    assert far.inner_backend == "exact"
    assert far.inner_prob == float(sum_tail_exact(2, 2**40))
    assert snr_tail_rhs(2, 1, 3 * 2**40).inner_backend == "none"


def test_leading_term_formula():
    n, r, x = 5, 1, 3 * 2**9
    a = snr_tail_rhs(n, r, x)
    psi_x = x / 2.0 ** math.floor(math.log2(x))
    want = math.comb(n, r + 1) * (psi_x / x) ** (r + 1)
    assert a.leading == pytest.approx(want, rel=1e-12)
    assert a.correction == pytest.approx(1.0 + (2 ** (r + 1) - 1) * a.inner_prob, rel=1e-12)


def test_finer_as_fixture():
    assert finer_as_rhs(2, 0, 12, 6.0) == 0.0006103515625
    got = float(trimmed_tail_exact(2, 0, 2**12 + 6)) / finer_as_rhs(2, 0, 12, 6.0)
    assert got == pytest.approx(0.999609375, rel=1e-12)
    assert abs(got - 1.0) < 0.01


def test_finer_as_single_payoff():
    # with nothing left after trimming, the bracket collapses to 1
    for m in (4, 9, 13):
        assert finer_as_rhs(1, 0, m, 1.5) == 2.0**-m
        assert finer_as_rhs(1, 0, m, 100.0) == 2.0**-m


def test_finer_as_validation():
    with pytest.raises(ValueError):
        finer_as_rhs(2, 0, 12, 1.0)
    with pytest.raises(ValueError):
        finer_as_rhs(2, 0, 0, 2.5)
    with pytest.raises(ValueError):
        finer_as_rhs(2, 2, 12, 2.5)


def test_subexp_limits_classical_and_snapped():
    assert subexp_limits() == (2.0, 4.0)
    assert subexp_limits(GEN) == (2.0, 3.0)
    # non-integer limsup stays as computed
    lo, hi = subexp_limits(GameParams(1.0, 0.25))
    assert lo == 2.0
    assert hi == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_gen_tail_delegates_classically():
    x = 3 * 2**9
    assert gen_snr_tail_rhs(4, 1, x) == snr_tail_rhs(4, 1, x)


def test_gen_tail_tracks_reference_enumeration():
    # independent exact enumeration of the float-parameter generalized law
    for x, lo, hi in ((10.0, 0.85, 1.0), (10.0 * 1.5**8, 0.98, 1.0)):
        exact = float(general_trimmed_tail(3, 0, x, GEN.p))
        asym = gen_snr_tail_rhs(3, 0, x, params=GEN)
        assert asym.inner_backend == "grid" and asym.error == 0.0
        ratio = exact / asym.value
        assert lo <= ratio <= hi, (x, ratio)


# the grid bracket is exact arithmetic on rounded payoffs, summed in floats:
# an oracle may sit outside it by rounding, never by more
ROUNDING = 1e-13


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.5, 1.9])
def test_grid_bracket_contains_enumeration(alpha):
    for p in (0.3, 1.0 / 3.0):
        params = GameParams(alpha, p)
        for m in (2, 3, 5):
            for t in (3.0, 5.0, 20.0, 50.0, 137.5, 1e3, 1e4, 1e5):
                if m == 5 and t > 137.5:
                    continue  # enumeration cost grows like levels^5
                want = enum_oracle(m, 0, t, params=params)
                value, half = _gen_sum_tail(m, t, params)
                assert 0.0 <= half < 1e-4, (p, m, t, half)
                assert abs(value - want) <= half + ROUNDING * want, (p, m, t, value, half, want)


def test_grid_bracket_contains_fraction_oracle():
    for p in (0.3, 1.0 / 3.0, 0.4):
        for m in (2, 3):
            for t in (3.0, 5.0, 20.0, 50.0, 137.5):
                want = float(general_trimmed_tail(m, 0, t, p))
                value, half = _gen_sum_tail(m, t, GameParams(1.0, p))
                assert abs(value - want) <= half + ROUNDING * want, (p, m, t, value, half, want)
    # at p = 1/3 the atom S_2 = 3 lies on a cell edge of t = 3: exact cell
    # indices never split it
    assert _gen_sum_tail(2, 3.0, GEN)[1] == 0.0
    # at p = 0.4 the atom S_3 = 3/q lies within a cell of t = 5, and the
    # bracket widens to its mass p^3 rather than guess a side
    assert _gen_sum_tail(3, 5.0, GameParams(1.0, 0.4))[1] == pytest.approx(0.4**3 / 2)


def test_grid_keeps_relative_accuracy_on_small_tails():
    params = GameParams(1.9, 0.2)
    want = enum_oracle(3, 0, 1e5, params=params)
    value, _half = _gen_sum_tail(3, 1e5, params)
    assert want < 1e-9
    assert value == pytest.approx(want, rel=1e-8)
    # a tail of 3.3e-6 at m = 49, which 400k draws can miss entirely
    value, half = _gen_sum_tail(49, 6199.0, params)
    assert value > 0.0 and half < 1e-3 * value


@pytest.mark.parametrize("alpha, p, m, t", [
    (1.0, 0.3, 9, 300.0), (1.5, 0.4, 12, 137.5), (0.7, 0.3, 8, 1e3), (1.9, 0.2, 20, 1e3),
])
def test_grid_agrees_with_sampler_beyond_enumeration(alpha, p, m, t):
    params = GameParams(alpha, p)
    value, half = _gen_sum_tail(m, t, params)
    reps = 200_000
    emp = simulate_trimmed(SimPlan(n=m, reps=reps, master_seed=16), params).tail(t)
    sigma = math.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps)
    assert abs(value - emp) <= half + 4.0 * sigma, (value, half, emp, sigma)


def test_gen_tail_reports_its_bracket():
    # 0.0120301184 is the exact-budget level DP's value of this asymptote
    asym = gen_snr_tail_rhs(10, 0, 1000.0, params=GameParams(1.0, 0.3))
    assert asym.inner_backend == "grid"
    assert 0.0 < asym.error <= 1e-7
    assert abs(asym.value - 0.0120301184) <= asym.error
    # with no game left after trimming there is no inner term and no error
    alone = gen_snr_tail_rhs(2, 1, 1000.0, params=GameParams(1.0, 0.3))
    assert (alone.inner_backend, alone.inner_prob, alone.error) == ("none", 0.0, 0.0)


def test_uniform_bound_terms():
    n, r, x, delta = 256, 1, 10.0, 0.3
    only_first = uniform_bound_rhs(n, r, x, delta, 0.0)
    want = 2.0 ** (r + 1) / math.factorial(r + 1) / ((1 - delta) * x) ** (r + 1)
    assert only_first == pytest.approx(want, rel=1e-12)
    with_c = uniform_bound_rhs(n, r, x, delta, 2.0)
    assert with_c == pytest.approx(only_first + 2.0 * delta ** -(r + 1.5) * x ** -(r + 1.5), rel=1e-12)
    # decreasing in x
    assert uniform_bound_rhs(n, r, 20.0, delta, 2.0) < with_c


def test_uniform_bound_validation():
    with pytest.raises(ValueError):
        uniform_bound_rhs(4, 1, 2.0, 0.3, 1.0)  # x below e
    with pytest.raises(ValueError):
        uniform_bound_rhs(4, 1, 10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        uniform_bound_rhs(4, 1, 10.0, 1.0, 1.0)


def test_ratio_table_rows():
    rows = ratio_table(4, 1, [3 * 2**10, 3 * 2**11])
    assert len(rows) == 2
    x, frac, exact, asym, ratio, backend = rows[0]
    assert x == 3072.0
    assert frac == pytest.approx(math.log2(3.0) - 1.0, abs=1e-12)
    assert ratio == pytest.approx(exact / asym, rel=1e-15)
    assert backend == "exact"
    assert exact == float(trimmed_tail_exact(4, 1, 3072))


def test_ratio_is_exact_far_out():
    # both float columns underflow to 0 past (r + 1) floor(log2 x) = 1074;
    # the ratio is formed from the exact integers and rounded once
    for argv in ((4, 1, 3.0 * 2.0**999), (32, 3, 3.0 * 2.0**299)):
        _x, _frac, exact, asym, ratio, _backend = ratio_table(*argv[:2], [argv[2]])[0]
        assert exact == asym == 0.0 and ratio == 1.0
    # Theorem 1 far beyond the acceptance check: (ratio - 1) x at x = 3 2^m
    # settles at -16 for (4, 1) and at -1075.2 for (32, 3)
    for (n, r), limit in (((4, 1), -16.0), ((32, 3), -1075.2)):
        for m in (40, 100, 1000):
            x = 3 * 2**m
            assert float((_exact_ratio(n, r, float(x)) - 1) * x) == pytest.approx(limit, abs=1e-6)
