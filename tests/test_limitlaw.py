"""Semistable limit machinery: weights, characteristic functions, inversion,
series sampling, centering constants.

The heavy cross-validation against simulation lives in the acceptance suite;
here each piece is pinned against an independent small computation.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from legacy_mixture import legacy_mixture_cdf
from oracle_reference import series_y_direct
from petersburg import limitlaw
from petersburg.limitlaw import (
    CdfCurve,
    InversionError,
    a_const,
    cdf_from_cf,
    centering,
    centering_closed,
    cf_Wgamma,
    cf_Wjgamma,
    chernoff_bound,
    chernoff_h,
    curve_moments,
    gmix_cdf,
    gstar_cdf,
    gstar_cdf_error,
    invert_cf_curve,
    log_cf_f,
    p_weight,
    r_weight,
    sample_Y,
    series_center,
    u_gamma_const,
    wgamma_cdf_curve,
    wjg_cdf_curve,
    xi_and_f,
)
from petersburg.stpdist import gamma_n


def test_p_weight_depends_only_on_rate():
    # the level weight is a function of gamma * 2^-j alone
    for j in (-2, 0, 3, 10):
        assert p_weight(j, 0.5) == pytest.approx(p_weight(j + 1, 1.0), rel=1e-15)


def test_p_weight_normalizes():
    for g in (0.5, 0.6, 0.75, 1.0):
        total = sum(p_weight(j, g) for j in range(-8, 61))
        assert total == pytest.approx(1.0, abs=1e-13)


def test_p_weight_domain():
    with pytest.raises(ValueError):
        p_weight(0, 0.25)
    with pytest.raises(ValueError):
        p_weight(0, 1.5)


def test_r_weight_is_conditioned_poisson():
    lam = 0.75 * 2.0**2  # j = -2
    z = math.expm1(lam)
    for m in range(1, 8):
        want = lam**m / math.factorial(m) / z
        assert r_weight(-2, 0.75, m) == pytest.approx(want, rel=1e-12)
    total = sum(r_weight(-2, 0.75, m) for m in range(1, 200))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_log_cf_backends_agree():
    ts = np.linspace(0.1, 10.0, 37)
    for eta in (0.5, 1.0, 8.0 / 3.0):
        d = np.abs(log_cf_f(eta, ts, backend="taylor") - log_cf_f(eta, ts, backend="atoms"))
        assert float(d.max()) <= 1e-12


def test_cf_at_zero_and_conjugacy():
    assert log_cf_f(1.0, 0.0) == 0.0
    assert cf_Wjgamma(0, 1.0, 0.0) == 1.0
    assert cf_Wgamma(0.75, 0.0) == 1.0
    # cf(-t) is the conjugate of cf(t)
    for t in (0.5, 2.0, 11.0):
        assert cf_Wgamma(1.0, -t) == pytest.approx(np.conj(cf_Wgamma(1.0, t)), rel=1e-12)
        assert cf_Wjgamma(1, 0.75, -t) == pytest.approx(np.conj(cf_Wjgamma(1, 0.75, t)), rel=1e-12)


def test_gaussian_inversion_curve():
    # unit-variance Gaussian: closed-form CDF to compare against
    cf = lambda t: np.exp(-0.5 * np.asarray(t) ** 2)
    curve = invert_cf_curve(cf, -10.0, 10.0, 2048)
    xs = np.linspace(-6.0, 6.0, 241)
    assert np.abs(curve.eval(xs) - norm.cdf(xs)).max() <= 5e-10
    mean, var = curve_moments(curve)
    assert abs(mean) <= 1e-9
    assert var == pytest.approx(1.0, abs=1e-8)


def test_gaussian_pointwise_inversion():
    cf = lambda t: np.exp(-0.5 * np.asarray(t) ** 2)
    res = cdf_from_cf(cf, 1.0, tol=1e-10)
    assert abs(res.value - norm.cdf(1.0)) <= 1e-11
    assert res.error <= 1e-10


def test_pointwise_inversion_reports_nonconvergence():
    # the mixture cf is too spiky for a 1e-10 budget; the failure is loud
    with pytest.raises(InversionError):
        cdf_from_cf(lambda t: cf_Wgamma(1.0, t), 2.0, tol=1e-10)


def test_nondecaying_cf_is_rejected():
    with pytest.raises(InversionError):
        cdf_from_cf(lambda t: np.ones_like(np.asarray(t, dtype=complex)), 0.0, tol=1e-6)


def test_wjg_curve_moments():
    for j, g in ((0, 1.0), (1, 0.75), (-1, 0.6)):
        eta = 2.0**j / g
        mean, var = curve_moments(wjg_cdf_curve(j, g))
        assert mean == pytest.approx(math.log2(eta), abs=1e-6)
        assert var == pytest.approx(2.0 * eta, rel=1e-6)


def test_wjg_pointwise_matches_curve():
    curve = wjg_cdf_curve(0, 1.0)
    for x in (-1.0, 0.5, 2.0, 5.0):
        res = cdf_from_cf(lambda t: cf_Wjgamma(0, 1.0, t), x, tol=1e-8)
        assert abs(res.value - float(curve.eval(x))) <= 1e-8


def test_wgamma_pointwise_matches_curve_loosely():
    # dyadic atoms alias the quadrature; the honest budget is coarser here
    curve = wgamma_cdf_curve(1.0)
    for x in (0.0, 1.0, 3.0, 7.0):
        res = cdf_from_cf(lambda t: cf_Wgamma(1.0, t), x, tol=1e-4)
        assert abs(res.value - float(curve.eval(x))) <= 1e-5


def test_wgamma_equals_level_mixture():
    # two routes to the same law: direct inversion of its cf, and the
    # level-ladder mixture of single-level laws
    curve = wgamma_cdf_curve(1.0)
    xs = np.linspace(-2.0, 14.0, 33)
    gap = np.abs(gmix_cdf(1.0, xs) - curve.eval(xs)).max()
    assert gap <= 1e-6


def test_gstar_dominates_wgamma():
    # removing the maximal jump can only shift mass downward
    curve = wgamma_cdf_curve(1.0)
    xs = np.linspace(-1.0, 12.0, 53)
    assert float((gstar_cdf(1.0, xs) - curve.eval(xs)).min()) >= -1e-8


def test_gstar_cdf_shape():
    xs = np.linspace(-4.0, 40.0, 89)
    vals = gstar_cdf(0.75, xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] >= 0.0
    assert vals[-1] <= 1.0
    assert vals[-1] > 0.99


@pytest.mark.parametrize("gamma", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_term_table_matches_legacy_loop(gamma):
    # the cached term table sums the same terms as the per-(j, m) loop, only
    # grouped per conditional curve, so the floats move by rounding alone
    inputs = [(1.3, 1e-10), (np.linspace(-4.0, 40.0, 2000), 1e-10),
              (np.linspace(-4.0, 1900.0, 2000), 1e-10), (np.linspace(-2.0, 12.0, 57), 1e-6)]
    for x, tol in inputs:
        for star, fn in ((True, gstar_cdf), (False, gmix_cdf)):
            got = fn(gamma, x, weight_tol=tol)
            want = legacy_mixture_cdf(gamma, x, star, tol)
            assert np.ndim(got) == np.ndim(x)
            assert float(np.max(np.abs(got - want))) <= 1e-13
    assert gstar_cdf(gamma, np.array([])).shape == (0,)
    assert gmix_cdf(gamma, []).shape == (0,)


def test_gstar_edges_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gstar_cdf(0.75, math.inf) == 1.0
        assert gstar_cdf(0.75, -math.inf) == 0.0
        assert list(gstar_cdf(0.75, [-math.inf, math.inf])) == [0.0, 1.0]
        assert gstar_cdf(0.75, -1e300) == 0.0
        far = gstar_cdf(0.75, 1e300)
        assert 1.0 - gstar_cdf_error(0.75, 1e300) <= far < 1.0
        assert gstar_cdf_error(0.75, math.inf) == 0.0
        curve = wjg_cdf_curve(0, 0.75)
        assert list(curve.eval(np.array([-1e308, 1e308, -math.inf, math.inf]))) == [0, 1, 0, 1]
        for fn in (gstar_cdf, gmix_cdf, gstar_cdf_error):
            with pytest.raises(ValueError, match="x must not be nan"):
                fn(0.75, [1.0, math.nan])


def test_gstar_error_covers_what_the_mixture_leaves_out():
    g, tol = 0.75, 1e-10
    xs = np.linspace(-4.0, 40.0, 45)
    err = gstar_cdf_error(g, xs, tol)
    # the skipped levels alone weigh 2.1e-10 here, more than weight_tol
    assert np.all(err > 2e-10)
    assert float(np.max(np.abs(gstar_cdf(g, xs, tol) - gstar_cdf(g, xs, 1e-14)))) <= err.min()
    # above the collapse window the collapse factors' deficit joins in
    far = np.array([100.0, 5000.0, 1e300])
    err_far = gstar_cdf_error(g, far, tol)
    assert err_far[0] < 1e-9 < err_far[1] == err_far[2]
    assert 1.0 - gstar_cdf(g, 1e300, tol) <= err_far[2]


def test_curve_caches_are_bounded(monkeypatch):
    # stand-in curves keep the sweep cheap; the caches are emptied afterwards
    # so no stand-in outlives the test
    stub = CdfCurve(x0=-60.0, dx=1.0, cdf=np.linspace(0.0, 1.0, 121),
                    density=np.full(121, 1.0 / 120.0), error=0.0)
    monkeypatch.setattr(limitlaw, "invert_cf_curve", lambda *args, **kwargs: stub)
    caches = (limitlaw._wjg_curve, limitlaw._wgamma_curve, limitlaw._term_table)
    try:
        gammas = np.linspace(0.6, 0.9, 2 * limitlaw._TABLE_CACHE_SIZE)
        for g in gammas:
            gstar_cdf(float(g), 1.0)
        for j in range(limitlaw._WJG_CACHE_SIZE + 1):
            wjg_cdf_curve(j % 50, 0.5 + j / 1e4)
        for g in gammas[: limitlaw._WG_CACHE_SIZE + 1]:
            wgamma_cdf_curve(float(g))
        for c in caches:
            info = c.cache_info()
            assert info.misses > info.maxsize >= info.currsize
        assert limitlaw._wjg_curve.cache_info().currsize == limitlaw._WJG_CACHE_SIZE
    finally:
        for c in caches:
            c.cache_clear()


def test_sample_y_deterministic_and_shaped():
    a = sample_Y(1, 0.75, truncation=500, reps=64, seed=9)
    b = sample_Y(1, 0.75, truncation=500, reps=64, seed=9)
    c = sample_Y(1, 0.75, truncation=500, reps=64, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64,)
    assert np.all(np.isfinite(a))


def test_sample_y_matches_gstar_distribution():
    # removing the top jump and the drift constant leaves the gstar law
    ys = sample_Y(1, 1.0, truncation=2000, reps=40_000, seed=21)
    ys = np.sort(ys - a_const(1, 1.0))
    grid = np.linspace(-1.0, 8.0, 19)
    emp = np.searchsorted(ys, grid, side="right") / ys.size
    ks = np.abs(emp - gstar_cdf(1.0, grid)).max()
    assert ks <= 0.02


def test_sample_y_untrimmed_matches_wgamma():
    ys = np.sort(sample_Y(0, 1.0, truncation=2000, reps=40_000, seed=22))
    curve = wgamma_cdf_curve(1.0)
    grid = np.linspace(-1.0, 8.0, 19)
    emp = np.searchsorted(ys, grid, side="right") / ys.size
    ks = np.abs(emp - curve.eval(grid)).max()
    assert ks <= 0.02


def test_sample_y_block_matches_direct_law():
    # the block sampler against every arrival drawn, same truncated series;
    # two-sample KS bound sqrt(ln(2/alpha)/2 * (n+m)/(n*m)) at alpha = 1e-3
    n = m = 20_000
    block = sample_Y(1, 0.75, truncation=2000, reps=n, seed=31)
    direct = series_y_direct(1, 0.75, 2000, m, np.random.default_rng(32))
    ks = ks_2samp(block, direct).statistic
    assert ks <= math.sqrt(math.log(2 / 1e-3) / 2 * (n + m) / (n * m))  # 0.0195


def test_series_center_matches_partial_centering():
    assert series_center(0, 1.0, 100) == centering(100, 1.0, 0)
    assert series_center(2, 0.75, 64) == centering(64, 0.75, 2)


def test_centering_anchor_and_closed_form():
    assert centering(8, 1.0, 0) == 3.125
    for n, g in ((1, 1.0), (37, 0.8), (513, 0.52), (4096, 1.0)):
        assert centering(n, g, 0) == pytest.approx(centering_closed(n, g), abs=1e-12)


def test_a_const_values():
    assert a_const(0, 1.0) == 0.0
    # psi(1) = psi(2) = 1, psi(3) = 1.5
    assert a_const(3, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_xi_anchors():
    xi, f = xi_and_f(1.0)
    assert xi == 0.0
    assert f == 0.0
    xi, f = xi_and_f(0.75)
    assert f == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        xi_and_f(0.5)


def test_u_gamma_const_anchor():
    assert u_gamma_const(1.0) == -0.5


def test_chernoff_h_shape():
    assert chernoff_h(0.0) == 0.0
    assert chernoff_h(2.0) == pytest.approx(4.0 * math.log(2.0) - 2.0, rel=1e-14)
    xs = np.linspace(0.01, 40.0, 500)
    for x in xs:
        h = chernoff_h(float(x))
        assert x * x / (4.0 + x) - 1e-12 <= h <= x * x / 2.0 + 1e-12


def test_chernoff_bound_defaults_to_gamma_n():
    n, j, x = 100, 1, 1.5
    assert chernoff_bound(n, j, None, x) == chernoff_bound(n, j, gamma_n(n), x)
    eta = 2.0**j / gamma_n(n)
    assert chernoff_bound(n, j, None, x) == pytest.approx(
        math.exp(-chernoff_h(x) / eta), rel=1e-12)
