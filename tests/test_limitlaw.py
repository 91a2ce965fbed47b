"""Semistable limit machinery: weights, characteristic functions, inversion,
series sampling, centering constants.

The heavy cross-validation against simulation lives in the acceptance suite;
here each piece is pinned against an independent small computation.
"""

import functools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from legacy_cf import (legacy_cf_Wgamma, legacy_cf_Wjgamma, legacy_invert_cf_curve,
                       two_sin_cf_Wgamma, two_sin_log_cf_f)
from legacy_mixture import legacy_curve_eval, legacy_mixture_cdf
from legacy_quad import legacy_cdf_from_cf
from oracle_reference import series_y_direct
from petersburg import limitlaw
from petersburg.limitlaw import (
    CdfCurve,
    InversionError,
    a_const,
    cdf_from_cf,
    cf_Wgamma,
    cf_Wjgamma,
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
    y_tail_parts,
)
from petersburg.stpdist import (
    centering,
    centering_closed,
    chernoff_bound,
    chernoff_h,
    floor_log2,
    gamma_n,
    psi,
    xi_and_f,
)


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


def test_closed_tail_matches_taylor():
    # scalar atom sums put every atom with |t| x <= 1/4 in the closed tail;
    # at |t| eta <= 1/4 that is all of them
    for eta in (0.01, 1.0, 640.0):
        for u in (1e-3, 0.1, 0.25, 0.3, 1.0, 3.7, 12.0, 47.0):
            t = u / eta
            ref = log_cf_f(eta, t, backend="taylor")
            assert log_cf_f(eta, t, backend="atoms") == pytest.approx(ref, rel=1e-14, abs=1e-300)


def _recorded_calls(monkeypatch, name, build, args):
    # (args, value) of every call an uncached curve build makes to
    # limitlaw.<name>: the top-of-grid probe, then the odd t-grid points
    # octave by octave
    calls = []
    real = getattr(limitlaw, name)

    def recording(*a):
        out = real(*a)
        calls.append((a, out))
        return out

    monkeypatch.setattr(limitlaw, name, recording)
    build(*args)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("gamma,hi", [(1.0, 24576.0), (0.75, 3072.0), (0.5, 3072.0)])
def test_one_sin_ladder_matches_two_sin_kernel_on_wgamma(monkeypatch, gamma, hi):
    calls = _recorded_calls(monkeypatch, "cf_Wgamma", limitlaw._wgamma_curve.__wrapped__,
                            (gamma, hi))
    assert len(calls) >= 2
    for (g, t), phi in calls:
        assert np.array_equal(phi, two_sin_cf_Wgamma(g, t))
    t_odd = calls[-1][0][1]
    with_zero = np.concatenate(([0.0], t_odd))
    assert np.array_equal(cf_Wgamma(gamma, with_zero), two_sin_cf_Wgamma(gamma, with_zero))
    for t in (0.0, float(t_odd[0]), 3.7, float(t_odd[-1])):
        assert cf_Wgamma(gamma, t) == two_sin_cf_Wgamma(gamma, t)


@pytest.mark.parametrize("j,gamma", [(-7, 0.78125), (0, 1.0), (9, 0.8)])
def test_one_sin_ladder_matches_two_sin_kernel_on_wjg(monkeypatch, j, gamma):
    eta = math.ldexp(1.0, j) / gamma
    assert eta in (0.01, 1.0, 640.0)
    calls = _recorded_calls(monkeypatch, "log_cf_f", limitlaw._wjg_curve, (j, gamma))
    assert len(calls) >= 2
    for (e, t, *_), log_f in calls:
        assert e == eta
        assert np.array_equal(log_f, two_sin_log_cf_f(eta, t))
    t_odd = calls[-1][0][1]
    with_zero = np.concatenate(([0.0], t_odd))
    assert np.array_equal(log_cf_f(eta, with_zero), two_sin_log_cf_f(eta, with_zero))
    for t in (0.0, float(t_odd[0]), 3.7 / eta, float(t_odd[-1])):
        assert log_cf_f(eta, t) == two_sin_log_cf_f(eta, t)


def test_scalar_cf_is_the_one_point_array_cf():
    # scalars run through the same atom series as arrays, bit for bit
    for eta in (0.01, 1.0, 640.0):
        for u in (0.0, 1e-3, 0.3, 12.0, 47.0, 49.0, 300.0):
            t = u / eta
            assert log_cf_f(eta, t) == log_cf_f(eta, np.array([t]))[0]
    for j, g in ((0, 1.0), (3, 0.75), (-5, 0.6)):
        for t in (0.0, 0.5, 7.0, 60.0):
            assert cf_Wjgamma(j, g, t) == cf_Wjgamma(j, g, np.array([t]))[0]
    for backend in ("auto", "series"):
        with pytest.raises(ValueError, match="backend"):
            log_cf_f(1.0, 0.5, backend=backend)


def test_cf_rejects_non_finite_arguments():
    for t in (math.inf, -math.inf, math.nan, np.array([0.5, math.nan]), np.array([math.inf])):
        for call in (lambda: cf_Wjgamma(0, 1.0, t), lambda: cf_Wgamma(1.0, t),
                     lambda: log_cf_f(1.0, t), lambda: log_cf_f(1.0, t, backend="taylor")):
            with pytest.raises(ValueError, match="t must be finite"):
                call()
    for eta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            log_cf_f(eta, 0.5)
    for g in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            cf_Wjgamma(0, g, 0.5)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            wjg_cdf_curve(0, g)
        with pytest.raises(ValueError, match="gamma must lie in"):
            cf_Wgamma(g, 0.5)
        with pytest.raises(ValueError, match="gamma must lie in"):
            wgamma_cdf_curve(g)
    for j in (2000, -1100):
        with pytest.raises(ValueError, match="eta = 2\\^j/gamma"):
            cf_Wjgamma(j, 1.0, 0.5)
        with pytest.raises(ValueError, match="eta = 2\\^j/gamma"):
            wjg_cdf_curve(j, 1.0)
    for hi in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="hi must be positive and finite"):
            wgamma_cdf_curve(1.0, hi)


def test_doubling_rules_match_direct_evaluation():
    t = np.linspace(0.01, 20.0, 200)
    for g in (0.5, 0.75, 1.0):
        got = limitlaw._double_wgamma(cf_Wgamma(g, t), t)
        assert float(np.max(np.abs(got - cf_Wgamma(g, 2.0 * t)))) <= 1e-14
    for eta in (0.01, 1.0, 640.0):
        ts = t / max(eta, 1.0)  # |f| stays well above the rounding floor
        f = np.exp(log_cf_f(eta, ts))
        got = limitlaw._double_wjg(eta, f, ts)
        assert float(np.max(np.abs(got - np.exp(log_cf_f(eta, 2.0 * ts))))) <= 1e-14
    # the location factor of W_{j,gamma} squares along with f
    j, g = 3, 0.75
    got = limitlaw._double_wjg(8.0 / 0.75, cf_Wjgamma(j, g, t), t)
    assert float(np.max(np.abs(got - cf_Wjgamma(j, g, 2.0 * t)))) <= 1e-14


def test_cf_at_zero_and_conjugacy():
    assert log_cf_f(1.0, 0.0) == 0.0
    assert log_cf_f(1.0, np.array([0.0]), backend="atoms")[0] == 0.0
    assert cf_Wjgamma(0, 1.0, 0.0) == 1.0
    for g in (0.5, 0.75, 1.0):
        assert cf_Wgamma(g, 0.0) == 1.0
        assert cf_Wgamma(g, np.array([0.0, 0.5, 70.0]))[0] == 1.0
    # cf(-t) is the conjugate of cf(t)
    for t in (0.5, 2.0, 11.0):
        assert cf_Wgamma(1.0, -t) == pytest.approx(np.conj(cf_Wgamma(1.0, t)), rel=1e-12)
        assert cf_Wjgamma(1, 0.75, -t) == pytest.approx(np.conj(cf_Wjgamma(1, 0.75, t)), rel=1e-12)


def test_gaussian_inversion_curve():
    # unit-variance Gaussian: closed-form CDF to compare against
    cf = lambda t: np.exp(-0.5 * np.asarray(t) ** 2)
    curve = invert_cf_curve(cf, lambda p, t: p**4, -10.0, 10.0, 2048)
    xs = np.linspace(-6.0, 6.0, 241)
    assert np.abs(curve.eval(xs) - norm.cdf(xs)).max() <= 5e-10
    mean, var = curve_moments(curve)
    assert abs(mean) <= 1e-9
    assert var == pytest.approx(1.0, abs=1e-8)


def test_curve_builds_are_bounded():
    # a build above _MAX_POINTS (2^21) is refused before the cf is ever called
    cf = lambda t: np.exp(-0.5 * np.asarray(t) ** 2)
    curve = invert_cf_curve(cf, lambda p, t: p**4, -10.0, 10.0, 1 << 21)
    assert abs(float(curve.eval(1.0)) - norm.cdf(1.0)) <= 1e-9
    calls = []

    def counting(t):
        calls.append(t)
        return cf(t)

    with pytest.raises(InversionError, match="grid points"):
        invert_cf_curve(counting, lambda p, t: p**4, -10.0, 10.0, 1 << 22)
    assert calls == []


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


def test_pointwise_inversion_refuses_what_it_cannot_answer():
    # refused by name before the first cf call
    def cf(t):
        raise AssertionError("cf was called")

    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            cdf_from_cf(cf, x)
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="tol must lie in"):
            cdf_from_cf(cf, 1.0, tol=tol)


def test_panel_rule_matches_quadpack_oracle():
    # the QUADPACK inversion it replaced, within the sum of the two errors
    cf = lambda t: cf_Wjgamma(0, 1.0, t)
    for tol in (1e-8, 1e-4):
        for x in (-1.0, 0.5, 2.0, 3.0, 5.0):
            new, old = cdf_from_cf(cf, x, tol=tol), legacy_cdf_from_cf(cf, x, tol=tol)
            assert abs(new.value - old.value) <= new.error + old.error, (tol, x)
    gauss = lambda t: np.exp(-0.5 * np.asarray(t) ** 2)
    new, old = cdf_from_cf(gauss, 1.0), legacy_cdf_from_cf(gauss, 1.0)
    assert abs(new.value - old.value) <= new.error + old.error


def test_pointwise_inversion_takes_arrays_and_refuses_past_the_panel_budget():
    # cf sees 1-D float arrays only; a far x needs more tail panels than the
    # budget allows and is refused by name after the truncation search alone
    seen = []

    def cf(t):
        seen.append(t)
        return np.exp(-0.5 * t**2)

    cdf_from_cf(cf, 1.0)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == float for t in seen)
    seen.clear()
    with pytest.raises(InversionError, match=r"x=1000.0 needs .* tail panels"):
        cdf_from_cf(cf, 1000.0)
    assert [t.tolist() for t in seen] == [[64.0]]


def test_slowly_decaying_cf_inverts_without_a_warning():
    # Cauchy with scale 1/100: T doubles to 4096, past e^t's float range,
    # and the tail nodes never go through exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cdf_from_cf(lambda t: np.exp(-np.abs(t) / 100.0), 0.01, tol=1e-8)
    assert abs(res.value - 0.75) <= res.error <= 1e-8


def test_pointwise_inversion_loads_neither_scipy_nor_polynomial_at_import():
    # importing limitlaw loads no numpy.polynomial (its nodes are made on the
    # first inversion), and an inversion loads no scipy
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from petersburg.limitlaw import cdf_from_cf\n"
        "before = {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
        "cdf_from_cf(lambda t: np.exp(-0.5 * t**2), 1.0)\n"
        "scipy = {m for m in sys.modules if m.split('.')[0] == 'scipy'}\n"
        "print(sorted(before), sorted(scipy))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(limitlaw.__file__)))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout == "[] []\n", res.stdout


def test_wjg_curve_moments():
    for j, g in ((0, 1.0), (1, 0.75), (-1, 0.6)):
        eta = 2.0**j / g
        mean, var = curve_moments(wjg_cdf_curve(j, g))
        assert mean == pytest.approx(math.log2(eta), abs=1e-6)
        assert var == pytest.approx(2.0 * eta, rel=1e-6)


def test_wjg_pointwise_matches_curve(monkeypatch):
    # the Taylor series is the exact oracle only; quadrature never enters it.
    # The curve's error leaves out the discretization of its cumulative
    # density quadrature (2.4e-10 here, gone when the window is inverted at
    # a quarter of the step), so the gap gets the slack the benchmark's
    # pointwise check allows too
    def refuse(eta, t):
        raise AssertionError("taylor series evaluated")

    monkeypatch.setattr(limitlaw, "_log_cf_f_taylor", refuse)
    curve = wjg_cdf_curve(0, 1.0)
    for x in (-1.0, 0.5, 2.0, 3.0, 5.0):
        res = cdf_from_cf(lambda t: cf_Wjgamma(0, 1.0, t), x, tol=1e-8)
        gap = abs(res.value - float(curve.eval(x)))
        assert gap <= 1e-8 and gap <= res.error + curve.error + 1e-9


def test_wgamma_pointwise_matches_curve_loosely():
    # dyadic atoms alias the quadrature; the honest budget is coarser here
    curve = wgamma_cdf_curve(1.0)
    for x in (0.0, 1.0, 3.0, 7.0):
        res = cdf_from_cf(lambda t: cf_Wgamma(1.0, t), x, tol=1e-4)
        assert abs(res.value - float(curve.eval(x))) <= 1e-5


def _with_legacy_twin(monkeypatch, build, args, legacy_cf):
    # builds the curve uncached, and the legacy full-grid inversion of the
    # legacy cf on the window and grid size the build asked for
    seen = {}
    real = limitlaw.invert_cf_curve

    def recording(cf, double, lo, hi, n_points):
        seen.update(lo=lo, hi=hi, n=n_points)
        return real(cf, double, lo, hi, n_points)

    monkeypatch.setattr(limitlaw, "invert_cf_curve", recording)
    curve = build(*args)
    monkeypatch.undo()
    return curve, legacy_invert_cf_curve(legacy_cf, seen["lo"], seen["hi"], seen["n"])


@pytest.mark.parametrize("hi", [24576.0, 3072.0])
def test_wgamma_curves_match_legacy(monkeypatch, hi):
    for g in (0.5, 0.75, 1.0):
        curve, legacy = _with_legacy_twin(monkeypatch, limitlaw._wgamma_curve.__wrapped__,
                                          (g, hi), lambda t: legacy_cf_Wgamma(g, t))
        assert curve.cdf.shape == legacy.cdf.shape
        err = min(curve.error, legacy.error)
        assert float(np.max(np.abs(curve.cdf - legacy.cdf))) <= err
        assert float(np.max(np.abs(curve.density - legacy.density))) <= err


def test_curve_builds_meet_the_cf_floor_on_their_first_grid(monkeypatch):
    # invert_cf_curve never grows a grid, so every builder's first t-grid
    # must already end where |cf| <= _CF_FLOOR; only that top point is probed
    tops = []

    def probe(cf, double, lo, hi, n_points):
        dt = 2.0 * math.pi / (hi - lo)
        tops.append(abs(cf(np.array([dt * (n_points - 1)]))[0]))

    monkeypatch.setattr(limitlaw, "invert_cf_curve", probe)
    for g in (0.5, 0.6, 0.75, 0.8, 0.9, 1.0):
        for j in range(-25, 16):
            limitlaw._wjg_curve(j, g)
        for hi in (64.0, 3072.0, 24576.0, 1e5):
            limitlaw._wgamma_curve.__wrapped__(g, hi)
    assert len(tops) == 6 * (41 + 4)
    assert max(tops) <= limitlaw._CF_FLOOR


def test_wjg_curves_match_legacy(monkeypatch):
    for g in (0.75, 1.0):
        for j in (-8, -3, 0, 4, 9, 14):
            curve, legacy = _with_legacy_twin(monkeypatch, limitlaw._wjg_curve, (j, g),
                                              lambda t: legacy_cf_Wjgamma(j, g, t))
            assert curve.cdf.shape == legacy.cdf.shape
            err = min(curve.error, legacy.error)
            assert float(np.max(np.abs(curve.cdf - legacy.cdf))) <= err


@pytest.mark.parametrize("build,args", [
    *[(limitlaw._wgamma_curve.__wrapped__, (g, hi))
      for g in (0.5, 0.75, 1.0) for hi in (3072.0, 24576.0)],
    *[(limitlaw._wjg_curve, (j, 1.0)) for j in (-20, -8, 0, 9, 14)],
])
def test_octave_stop_matches_full_grid(monkeypatch, build, args):
    # the uncached build, with the bound on what its octave fill left at
    # zero, against the same build with one cf call over the whole odd grid,
    # which never stops early: the stop moves the curve by no more than that
    # bound, plus rounding
    real = limitlaw._fill_cf_grid
    bounds = []

    def recording(cf, double, t):
        phi, bound = real(cf, double, t)
        bounds.append(bound)
        return phi, bound

    monkeypatch.setattr(limitlaw, "_fill_cf_grid", recording)
    curve = build(*args)
    monkeypatch.setattr(limitlaw, "_OCTAVE_BATCH", 1 << 30)
    full = build(*args)
    skipped, nothing = bounds
    assert nothing == 0.0
    assert 0.0 <= skipped <= 1e-12 and curve.error >= skipped
    assert float(np.max(np.abs(curve.cdf - full.cdf))) <= skipped + 1e-14
    assert float(np.max(np.abs(curve.density - full.density))) <= skipped + 1e-14


def test_octave_fill_stops_where_the_cf_has_vanished(monkeypatch):
    # W_1 at hi = 24576 has 2^18 grid points; |cf| < 1e-17 above t = 17.7,
    # the top of octave 2^15, so the top probe and that octave's odd points
    # are all the cf work, against 2^17 + 1 calls for the whole odd grid
    calls = _recorded_calls(monkeypatch, "cf_Wgamma", limitlaw._wgamma_curve.__wrapped__,
                            (1.0, 24576.0))
    assert sum(np.size(t) for (_, t), _ in calls) <= 2**15 + 2
    # a cf that is still large high up the grid keeps its accuracy
    assert limitlaw._wjg_curve(-20, 1.0).error <= 4.63e-9


def test_wgamma_curve_is_invariant_under_doubling():
    # 2W = W' + W'' - 2 in law (W', W'' independent copies): the grid
    # self-convolution of the curve, P{W' + W'' <= z} = int g(a) F(z - a) da on
    # z = 2 x0 + m dx, against W((z - 2)/2).  The trapezoid sum of that smooth,
    # vanishing-at-both-ends integrand is spectrally accurate; what is left is
    # the curve's own discretization.  Its CDF nodes carry the Euler-Maclaurin
    # residual of a central-difference g' (dx^4 |g'''|/72, plus dx^4 |g'''|/720
    # from the next order), once in F and once in W, and eval's cubic Hermite
    # step adds dx^4 |g'''|/384.
    curve = wgamma_cdf_curve(1.0)
    assert curve.error <= 1e-10  # 7.9e-12; a large error would void the bound
    dx, x0 = curve.dx, curve.x0
    m = int(150.0 / dx)  # z up to 54 reads the curve on [x0, 102] only
    sums = dx * np.convolve(curve.density[:m], curve.cdf[:m])[:m]
    z = 2.0 * x0 + dx * np.arange(m)
    sel = (z >= -4.0) & (z <= 40.0)
    gap = np.abs(sums[sel] - curve.eval((z[sel] - 2.0) / 2.0))
    g3 = np.max(np.abs(np.gradient(np.gradient(np.gradient(curve.density[:m], dx), dx), dx)))
    bound = 2.0 * curve.error + dx**4 * g3 * (2.0 / 72.0 + 2.0 / 720.0 + 1.0 / 384.0)
    assert float(gap.max()) <= bound  # 6.1e-8 against 1.3e-7 at dx = 0.089


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


def _cut_top(gamma, cut):
    # the largest x whose collapse cut is cut
    return math.ldexp(1.0, cut - 1) / gamma - 104.0


def _legacy_per_cut(gamma, xs, star, tol):
    # the oracle collapses every point at its query's largest x, so it is
    # called once per cut group, and both sides collapse at the same cut
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cuts = limitlaw._collapse_cut(gamma, np.minimum(np.maximum(xs, 64.0), 4096.0))
    want = np.empty_like(xs)
    for c in np.unique(cuts):
        want[cuts == c] = legacy_mixture_cdf(gamma, xs[cuts == c], star, tol)
    return want


def _lattice(gamma, lo, hi):
    # the nodes in [lo, hi] of every segment: step 2^-6/gamma below the top of
    # the bulk cut (the cut of x = 64), doubling with each cut above it
    bulk = int(limitlaw._collapse_cut(gamma, 64.0))
    top = int(limitlaw._collapse_cut(gamma, 4096.0))
    nodes = []
    for cut in range(bulk, top + 1):
        h = math.ldexp(1.0, cut - bulk - 6) / gamma
        a = lo if cut == bulk else max(lo, _cut_top(gamma, cut - 1))
        b = min(hi, _cut_top(gamma, cut))
        nodes.append(h * np.arange(math.floor(a / h) + 1, math.ceil(b / h)))
    return np.concatenate(nodes)


def _assert_mixtures_match_legacy(gamma, nodes, off, tol):
    # at lattice nodes the segment sums the same terms as the per-(j, m)
    # loop, so the floats move by rounding alone; between nodes they move by
    # the interpolation error, which the segment's error covers
    for star, fn in ((True, gstar_cdf), (False, gmix_cdf)):
        got = fn(gamma, nodes)
        assert np.ndim(got) == np.ndim(nodes)
        assert float(np.max(np.abs(got - _legacy_per_cut(gamma, nodes, star, tol)))) <= 1e-13
        gap = np.abs(fn(gamma, off) - _legacy_per_cut(gamma, off, star, tol))
        assert np.all(gap <= limitlaw._by_segment(gamma, off, star, limitlaw._error_at, 0.0))


@pytest.mark.parametrize("gamma", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_term_table_matches_legacy_loop(gamma, monkeypatch):
    off = np.concatenate([[1.3], np.linspace(-4.0, 40.0, 2000), np.linspace(-4.0, 1900.0, 2000)])
    _assert_mixtures_match_legacy(gamma, _lattice(gamma, -4.0, 1900.0), off, 1e-10)
    assert gstar_cdf(gamma, np.array([])).shape == (0,)
    assert gmix_cdf(gamma, []).shape == (0,)
    # a coarser level cut skips more levels the same way in both; the segment
    # cache is emptied on both sides so no segment of the patched cut
    # outlives the test
    monkeypatch.setattr(limitlaw, "_WEIGHT_TOL", 1e-6)
    limitlaw._segment.cache_clear()
    try:
        _assert_mixtures_match_legacy(gamma, _lattice(gamma, -2.0, 12.0),
                                      np.linspace(-2.0, 12.0, 57), 1e-6)
    finally:
        limitlaw._segment.cache_clear()


@pytest.mark.parametrize("gamma", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_gstar_error_covers_the_interpolation(gamma):
    # off the lattice, G* is a Hermite read of the segment's nodes; its
    # error bounds the gap to the per-term loop on [-6, 60] and on every
    # segment above the bulk
    bulk = int(limitlaw._collapse_cut(gamma, 64.0))
    top = int(limitlaw._collapse_cut(gamma, 4096.0))
    ranges = [(-6.0, 60.0)] + [(_cut_top(gamma, c - 1),
                                min(_cut_top(gamma, c), 4096.0))
                               for c in range(bulk + 1, top + 1)]
    rng = np.random.default_rng(5)
    for lo, hi in ranges:
        xs = rng.uniform(lo, hi, 300)
        gap = np.abs(gstar_cdf(gamma, xs) - _legacy_per_cut(gamma, xs, True, 1e-10))
        ratio = float(np.max(gap / gstar_cdf_error(gamma, xs)))
        print(f"gamma {gamma} on [{lo:.0f}, {hi:.0f}]: gap/error {ratio:.3f}")
        assert ratio <= 1.0


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
    g = 0.75
    xs = np.linspace(-4.0, 40.0, 45)
    err = gstar_cdf_error(g, xs)
    # the skipped levels alone weigh 2.1e-10 here, more than the 1e-10 level cut
    assert np.all(err > 2e-10)
    fine = legacy_mixture_cdf(g, xs, True, weight_tol=1e-14)
    assert float(np.max(np.abs(gstar_cdf(g, xs) - fine))) <= err.min()
    # above the collapse window the collapse factors' deficit joins in
    far = np.array([100.0, 5000.0, 1e300])
    err_far = gstar_cdf_error(g, far)
    assert err_far[0] < 1e-9 < err_far[1] == err_far[2]
    assert 1.0 - gstar_cdf(g, 1e300) <= err_far[2]


def test_curve_caches_are_bounded(monkeypatch):
    # stand-in curves, as many nodes as a real build keeps, keep the sweep
    # cheap; the caches are emptied afterwards so no stand-in outlives the test
    def stub(cf, double, lo, hi, n_points):
        nodes = -(-n_points // max(1, n_points >> 18))
        return CdfCurve(x0=lo, dx=(hi - lo) / nodes, cdf=np.linspace(0.0, 1.0, nodes),
                        density=np.full(nodes, 1.0 / (hi - lo)), error=0.0)

    monkeypatch.setattr(limitlaw, "invert_cf_curve", stub)
    caches = (limitlaw.wjg_cdf_curve, limitlaw._wgamma_curve, limitlaw._segment)
    try:
        gammas = np.linspace(0.6, 0.9, 2 * limitlaw._SEGMENT_CACHE_SIZE)
        for g in gammas:
            gstar_cdf(float(g), 1.0)
        for j in range(limitlaw._WJG_CACHE_SIZE + 1):
            wjg_cdf_curve(j % 50, 0.5 + j / 1e4)
        for g in gammas[: limitlaw._WG_CACHE_SIZE + 1]:
            wgamma_cdf_curve(float(g))
        for c in caches:
            info = c.cache_info()
            assert info.misses > info.maxsize == info.currsize
    finally:
        for c in caches:
            c.cache_clear()


def test_strided_curves_hold_only_their_nodes():
    # a build above 2^18 points keeps every stride-th node in arrays of its
    # own, not views of the whole grid
    curve = wgamma_cdf_curve(1.0, 1e5)
    for nodes in (curve.cdf, curve.density):
        assert nodes.size == 1 << 18
        assert nodes.base is None or nodes.base.size == nodes.size


@pytest.mark.parametrize("gamma", [0.6, 0.75, 1.0])
def test_family_curves_are_the_uncached_builds(gamma):
    # a cached curve is the builder's curve, bit for bit
    for j in (-20, -5, 0, 8, 14):
        curve, built = wjg_cdf_curve(j, gamma), limitlaw._wjg_curve(j, gamma)
        assert (curve.x0, curve.dx, curve.error) == (built.x0, built.dx, built.error)
        assert np.array_equal(curve.cdf, built.cdf)
        assert np.array_equal(curve.density, built.density)


def test_curve_eval_keeps_its_bits():
    # the shared Hermite kernel against CdfCurve.eval as it was, on every
    # node, between nodes, far out and at +-inf
    for curve in (wjg_cdf_curve(0, 0.75), wjg_cdf_curve(-20, 1.0), wgamma_cdf_curve(1.0, 3072.0)):
        nodes = curve.x0 + curve.dx * np.arange(len(curve.cdf))
        for x in (nodes, nodes[:-1] + 0.37 * curve.dx,
                  np.array([-1e308, 1e308, -math.inf, math.inf]), 1e308, -math.inf):
            got, want = curve.eval(x), legacy_curve_eval(curve, x)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


def test_curve_eval_is_the_hermite_value():
    # eval skips the slope, but its values are the kernel's bit for bit, on
    # the W_1 curve and on a G* segment, both window edges among the points
    cut = int(limitlaw._collapse_cut(1.0, 64.0))
    for curve in (wgamma_cdf_curve(1.0), limitlaw._segment(1.0, True, cut, False)):
        n = len(curve.cdf)
        lo, hi = curve.x0, curve.x0 + curve.dx * (n - 1)
        xs = np.concatenate([np.linspace(lo - curve.dx, hi + curve.dx, 4001), [lo, hi]])
        want = limitlaw._hermite(xs, curve.x0, curve.dx, n, curve.cdf, curve.density)[0]
        assert np.array_equal(curve.eval(xs).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("gamma", [0.6, 0.75, 1.0])
def test_gstar_scalar_and_grid_agree(gamma):
    # a value is read off the segment of its own x's cut, so it depends on
    # (gamma, x) alone: a scalar, a grid and a grid with a far point added
    # give the same bits
    xs = np.linspace(-4.0, 40.0, 2000)
    grid = gstar_cdf(gamma, xs)
    scalar = np.array([gstar_cdf(gamma, float(x)) for x in xs])
    assert np.array_equal(grid, scalar)
    assert np.array_equal(gstar_cdf(gamma, np.append(xs, 4000.0))[:-1], grid)
    assert np.array_equal(gstar_cdf_error(gamma, np.append(xs, 4000.0))[:-1],
                          gstar_cdf_error(gamma, xs))


def test_sample_y_deterministic_and_shaped():
    a = sample_Y(1, 0.75, truncation=500, reps=64, seed=9)
    b = sample_Y(1, 0.75, truncation=500, reps=64, seed=9)
    c = sample_Y(1, 0.75, truncation=500, reps=64, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64,)
    assert np.all(np.isfinite(a))
    # the default seed is 0, never OS entropy
    assert np.array_equal(sample_Y(1, 0.75, truncation=500, reps=8),
                          sample_Y(1, 0.75, truncation=500, reps=8, seed=0))


def test_sample_y_prefix_holds_in_whole_blocks():
    # the Poisson counts are drawn level by level across a block's rows, so a
    # partial last block depends on reps; whole 65536-row blocks do not
    a = sample_Y(0, 1.0, truncation=500, reps=65536, seed=1)
    b = sample_Y(0, 1.0, truncation=500, reps=70_000, seed=1)
    assert np.array_equal(a, b[:65536])


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


def test_y_tail_leading_matches_power_formula():
    # leading = psi(gamma x)^(r+1) / ((r+1)! x^(r+1)), now formed without powers of x
    for x in (96.0, 192.0, 3.0 * 2**20):
        for gamma in (1.0, 0.75):
            for r in (0, 1, 2):
                want = psi(gamma * x) ** (r + 1) / (math.factorial(r + 1) * x ** (r + 1))
                got = y_tail_parts(r, gamma, x)["leading"]
                assert got == pytest.approx(want, rel=1e-12)


_Y_GAMMAS = (0.52, 0.6, 0.75, 0.9, 1.0)


@functools.lru_cache(maxsize=None)
def _y0_draws(gamma):
    # one million draws of Y_{0,gamma}, shared by the two gates below
    return sample_Y(0, gamma, truncation=10_000, reps=1_000_000, seed=20)


def counted_y_tail(r, gamma, x, ys):
    """The sampled y_tail_parts the W_gamma curve replaced: its two inner
    probabilities counted over draws ys of Y_{0,gamma}.  Returns value and
    its standard error."""
    fl = floor_log2(gamma * x)
    shifted = ys + a_const(r, gamma)
    hit0, hit1 = (shifted > 2.0 * (0.5 * x - math.ldexp(1.0 / gamma, fl + ell - 1))
                  for ell in (0, 1))
    s = 2 ** (r + 1)
    z = (s - 1) * (hit0 + hit1 / s)  # bracket - 1/s, one term per draw
    leading = math.ldexp(gamma ** (r + 1) / math.factorial(r + 1), -(r + 1) * fl)
    return leading * (1 / s + z.mean()), leading * z.std() / math.sqrt(ys.size)


@pytest.mark.parametrize("gamma", _Y_GAMMAS)
def test_y0_is_wgamma_shifted_by_minus_xi(gamma):
    # one-sample KS of sample_Y(0, gamma) against W_gamma(. + xi(gamma)), at
    # the alpha = 1e-3 critical value sqrt(ln(2/alpha)/(2n)) = 3.1e-3
    ys = np.sort(_y0_draws(gamma)[:400_000])
    n = ys.size
    cdf = wgamma_cdf_curve(gamma).eval(ys + xi_and_f(gamma)[0])
    i = np.arange(1, n + 1)
    ks = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
    assert ks <= math.sqrt(math.log(2 / 1e-3) / (2 * n))


@pytest.mark.parametrize("gamma", _Y_GAMMAS)
def test_y_tail_curve_agrees_with_counted_draws(gamma):
    ys = _y0_draws(gamma)
    for r in (0, 1, 2):
        for x in (40.0, 300.0, 3000.0):
            parts = y_tail_parts(r, gamma, x)
            counted, sigma = counted_y_tail(r, gamma, x, ys)
            assert abs(parts["value"] - counted) <= parts["error"] + 4 * sigma, (r, x)


def test_y_tail_reads_the_curve_without_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("y_tail_parts drew a sample")

    monkeypatch.setattr(limitlaw, "sample_Y", no_draws)
    parts = y_tail_parts(1, 0.75, 300.0)
    assert 0.0 < parts["inner0"] < parts["inner1"] <= 1.0
    assert parts["value"] == parts["leading"] * parts["bracket"]
    # value moves by leading (s - 1)(e0 + e1/s) for curve errors e0, e1
    error = wgamma_cdf_curve(0.75).error
    assert parts["error"] == pytest.approx(parts["leading"] * 3.0 * (error + error / 4.0))


def test_y_series_is_invariant_under_doubling_gamma():
    # Psi(v/(2 gamma))/v = Psi(v/gamma)/v: Y_{r,2 gamma} is Y_{r,gamma} term by term
    draws = sample_Y(1, 0.75, truncation=500, reps=1000, seed=3)
    for g in (0.375, 1.5, 3.0):
        assert np.array_equal(sample_Y(1, g, truncation=500, reps=1000, seed=3), draws)
    for r, x in ((0, 40.0), (1, 300.0), (2, 1e6)):
        for base, others in ((0.75, (0.375, 1.5, 3.0)), (1.0, (0.5, 2.0, 0.25))):
            want = y_tail_parts(r, base, x)
            for g in others:
                assert y_tail_parts(r, g, x) == want, (r, x, g)


def test_wgamma_tail_bound_holds_over_the_curve():
    # the bound past the window, checked where the curve can see: every
    # curve tail up to 0.9 of the top lies under it
    for gamma in _Y_GAMMAS:
        curve = wgamma_cdf_curve(gamma)
        top = curve.x0 + curve.dx * (len(curve.cdf) - 1)
        for y in np.geomspace(4.0 / gamma, 0.9 * top, 60):
            assert 1.0 - float(curve.eval(y)) <= limitlaw._wgamma_tail_bound(gamma, float(y))


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
