"""Property-based checks: DyadicProb algebra against Fraction, and the exact
engine against brute enumeration on random small games.

derandomize=True and a fixed max_examples keep every run the same.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import classical_trimmed_tail
from petersburg.exact import DyadicProb, sum_tail_exact, trimmed_tail_exact

FIXED = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@st.composite
def dyadic(draw):
    e = draw(st.integers(0, 80))
    return DyadicProb(draw(st.integers(0, 1 << e)), e)


def _canonical(d: DyadicProb) -> bool:
    return d.num % 2 == 1 or (d.num, d.log2_den) == (0, 0)


def _check(result, want: Fraction) -> None:
    """result is a thunk computing a DyadicProb equal to want, or raising
    ValueError exactly when want is not a probability."""
    if 0 <= want <= 1:
        got = result()
        assert got.as_fraction() == want
        assert _canonical(got)
        assert got == DyadicProb.from_fraction(want)
    else:
        with pytest.raises(ValueError):
            result()


@FIXED
@given(dyadic(), dyadic())
def test_dyadic_prob_algebra_matches_fraction(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert _canonical(a) and _canonical(b)
    _check(lambda: a + b, fa + fb)
    _check(lambda: a - b, fa - fb)
    _check(lambda: a * b, fa * fb)
    _check(a.complement, 1 - fa)
    assert (a < b, a <= b, a == b, a > b, a >= b) == (fa < fb, fa <= fb, fa == fb, fa > fb, fa >= fb)
    if fa == fb:
        assert hash(a) == hash(b)
    assert DyadicProb.from_json(json.loads(json.dumps(a.to_json()))) == a


@FIXED
@given(st.integers(0, 1 << 40), st.integers(0, 40), st.integers(0, 6))
def test_dyadic_prob_canonical_form(num, e, extra):
    # the same value written with extra factors of two is the same object
    if num > 1 << e:
        with pytest.raises(ValueError):
            DyadicProb(num, e)
        return
    d = DyadicProb(num << extra, e + extra)
    assert _canonical(d)
    assert (d.num, d.log2_den) == (DyadicProb(num, e).num, DyadicProb(num, e).log2_den)
    assert d.as_fraction() == Fraction(num, 1 << e)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.data())
def test_exact_engine_matches_enumeration(data):
    n = data.draw(st.integers(1, 5), label="n")
    r = data.draw(st.integers(0, n - 1), label="r")
    x = data.draw(st.integers(0, (1 << 8) - 1), label="x")
    want = classical_trimmed_tail(n, r, x)
    assert trimmed_tail_exact(n, r, x).as_fraction() == want
    if r == 0:
        assert sum_tail_exact(n, x).as_fraction() == want
