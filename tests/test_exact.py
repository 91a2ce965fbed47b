"""Exact dyadic engine against the independent enumeration reference and the
two engines it replaced."""

from fractions import Fraction

import numpy as np
import pytest

from legacy_exact import capped_sum_table, sparse_trimmed_tails
from oracle_reference import classical_trimmed_tail
from petersburg.checks import _LIMINF_POINTS, _LIMSUP_X
from petersburg.exact import (
    DyadicProb,
    conv_ratio_curve,
    dyadic_grid,
    enum_oracle,
    sum_tail_exact,
    trimmed_tail_exact,
    two_sum_tail_closed,
)


def test_dyadic_prob_roundtrips():
    dp = DyadicProb.from_fraction(Fraction(3, 8))
    assert dp.as_fraction() == Fraction(3, 8)
    assert dp.complement().as_fraction() == Fraction(5, 8)
    assert DyadicProb.from_json(dp.to_json()) == dp
    assert dp.to_json() == {"num": "3", "log2_den": 3}


def test_dyadic_prob_ordering_and_hash():
    a = DyadicProb.from_fraction(Fraction(1, 4))
    b = DyadicProb.from_fraction(Fraction(3, 8))
    assert a < b
    assert a <= a
    assert b > a
    assert hash(a) == hash(DyadicProb.from_fraction(Fraction(2, 8)))
    assert DyadicProb.zero() < a < DyadicProb.one()
    assert float(b) == 0.375


def test_dyadic_prob_rejects_non_dyadic():
    with pytest.raises(ValueError):
        DyadicProb.from_fraction(Fraction(1, 3))


def test_sum_tail_matches_reference():
    for n in (1, 2, 3, 4):
        for x in range(0, 65):
            want = classical_trimmed_tail(n, 0, x)
            assert sum_tail_exact(n, x).as_fraction() == want, (n, x)


def test_trimmed_tail_matches_reference():
    for n in (2, 3, 4):
        for r in range(1, min(3, n)):
            for x in (2, 5, 8, 11, 16, 23, 40, 64):
                want = classical_trimmed_tail(n, r, x)
                assert trimmed_tail_exact(n, r, x).as_fraction() == want, (n, r, x)


def test_trivial_tails():
    # the sum of n payoffs is at least 2n, the trimmed sum at least 2(n-r)
    assert sum_tail_exact(5, 9).as_fraction() == 1
    assert trimmed_tail_exact(5, 2, 5).as_fraction() == 1
    assert sum_tail_exact(1, 2) == DyadicProb.from_fraction(Fraction(1, 2))


def test_two_sum_closed_form_values():
    # k = l = 1: only the double minimum stays at 4
    assert two_sum_tail_closed(1, 1).as_fraction() == Fraction(3, 4)
    # the 2 + 4 split
    assert two_sum_tail_closed(1, 2).as_fraction() == Fraction(1, 2)
    assert two_sum_tail_closed(1, 2).to_json() == {"num": "1", "log2_den": 1}
    for k, ell in ((1, 3), (2, 5), (4, 4), (3, 9)):
        want = classical_trimmed_tail(2, 0, 2**k + 2**ell)
        assert two_sum_tail_closed(k, ell).as_fraction() == want


def test_two_sum_closed_form_validates():
    with pytest.raises(ValueError):
        two_sum_tail_closed(0, 3)
    with pytest.raises(ValueError):
        two_sum_tail_closed(4, 2)


def test_large_x_and_small_x():
    # far past where a table linear in x could go; n = 2 has a closed form
    assert sum_tail_exact(2, 1 << 21) == two_sum_tail_closed(20, 20)
    assert sum_tail_exact(2, (1 << 59) + 8) == two_sum_tail_closed(3, 59)
    assert trimmed_tail_exact(32, 2, 1 << 60) < trimmed_tail_exact(32, 2, (1 << 60) - 1)
    assert sum_tail_exact(8, 15).as_fraction() == 1
    for x in (1 << 1024, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="2\\^1024"):
            sum_tail_exact(2, x)
    with pytest.raises(ValueError, match="2\\^1024"):
        trimmed_tail_exact(4, 1, 1 << 1030)
    assert sum_tail_exact(32, (1 << 1024) - 1) > DyadicProb.zero()
    assert sum_tail_exact(3, np.float64(100.5)) == sum_tail_exact(3, np.int64(100))


def test_table_mass_accounting():
    # the legacy table oracle itself: masses plus overflow make one
    t = capped_sum_table(4, 128)
    assert t.total_is_one()
    # tail at x equals pooled mass above x plus the overflow bucket
    for x in (8, 9, 64, 127):
        masses = sum(t.mass(s) for s in range(x + 1, t.cap + 1))
        assert t.tail(x) == masses + t.overflow_prob()


def test_level_dp_matches_legacy_engines():
    for n in range(1, 9):
        table = capped_sum_table(n, 299)
        for x in range(300):
            assert sum_tail_exact(n, x).as_fraction() == table.tail(x), (n, x)
        for r in range(n):
            sparse = sparse_trimmed_tails(n, r, 299)
            for x in range(300):
                assert trimmed_tail_exact(n, r, x).as_fraction() == sparse[x], (n, r, x)


def test_level_dp_matches_legacy_at_oscillation_points():
    points = [*_LIMINF_POINTS.items()] + [(n, _LIMSUP_X) for n in (2, 4, 16)]
    for n, x in points:
        want = capped_sum_table(n, x).tail(x)
        assert sum_tail_exact(n, x).as_fraction() == want, (n, x)
        # both legacy engines take about 10 s at n = 16, x = 529900; one will do
        if n * x < 10**6:
            assert sparse_trimmed_tails(n, 0, x)[x] == want, (n, x)


def test_enum_oracle_agrees_with_dp():
    for n, r, x in ((3, 1, 17), (4, 2, 30), (5, 0, 12), (5, 4, 64)):
        assert enum_oracle(n, r, x) == trimmed_tail_exact(n, r, x)


def test_enum_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        enum_oracle(6, 0, 10)


def test_conv_ratio_endpoints():
    rows = dict(conv_ratio_curve([4095.0, 4096.0, 4608.0, 6144.0]))
    assert rows[4095.0] == pytest.approx(2.0, abs=1e-12)
    assert rows[4096.0] == pytest.approx(4.0, rel=2.5e-4)
    # the spike at the dyadic decays across the octave and bottoms out at 2
    assert 2.0 < rows[4608.0] < 4.0
    assert rows[6144.0] == 2.0


def test_conv_ratio_is_exact_rational_arithmetic():
    # P{S_2 > 6} / P{X > 6} = (1/2) / (1/4)
    rows = dict(conv_ratio_curve([6.0]))
    assert rows[6.0] == 2.0


def test_dyadic_grid_shape():
    xs = dyadic_grid(3, 5, 4)
    assert len(xs) == 9
    assert xs[0] == 8.0
    assert xs[-1] == 32.0
    assert xs == sorted(xs)
    assert 16.0 in xs
    # quarter-octave ratio between neighbours
    for a, b in zip(xs, xs[1:]):
        assert b / a == pytest.approx(2.0**0.25, rel=1e-12)


def test_trimmed_all_but_min():
    # removing n-1 payoffs leaves the minimum; its tail is a product of tails
    for x in (2, 4, 5, 16, 40):
        want = classical_trimmed_tail(3, 2, x)
        assert trimmed_tail_exact(3, 2, x).as_fraction() == want
        single = sum_tail_exact(1, x).as_fraction()
        assert want == single**3
