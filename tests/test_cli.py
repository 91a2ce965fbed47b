"""Command-line surface: one subcommand per library operation, pinned output
shapes, exit codes, and the repro-all harness."""

import argparse
import hashlib
import json
import os

import numpy as np
import pytest

from petersburg import limitlaw
from petersburg.checks import ALL_CHECKS, DEFAULT_CONFIG
from petersburg.cli import _build_parser, main
from petersburg.montecarlo import SimPlan, simulate_trimmed
from petersburg.stpdist import gamma_n

# every public operation and the single subcommand that exposes it
MAPPING = {
    # single-payoff law
    "cdf": "tail",
    "tail": "tail",
    "psi": "tail",
    "truncated_cdf": "tail",
    "quantile": "quantile",
    "gamma_n": "merge-check",
    "truncated_moment": "chernoff",
    "sample": "mc-sim",
    # exact dyadic engine
    "sum_tail_exact": "exact-tail",
    "two_sum_tail_closed": "exact-tail",
    "trimmed_tail_exact": "trimmed-tail",
    "enum_oracle": "trimmed-tail",
    "conv_ratio_curve": "conv-ratio",
    # asymptotic formulas
    "snr_tail_rhs": "asym-tail",
    "finer_as_rhs": "finer-as",
    "subexp_limits": "subexp-limits",
    "gen_snr_tail_rhs": "gen-tail",
    "uniform_bound_rhs": "trimmed-tail",
    # limit laws
    "p_weight": "max-check",
    "r_weight": "gstar-cdf",
    "log_cf_f": "limit-cdf",
    "cf_Wjgamma": "limit-cdf",
    "cf_Wgamma": "limit-cdf",
    "cdf_from_cf": "limit-cdf",
    "gstar_cdf": "gstar-cdf",
    "sample_Y": "sample-y",
    "y_tail_rhs": "y-tail",
    "a_const": "y-tail",
    "centering": "centering",
    "xi_and_f": "xi",
    "chernoff_bound": "chernoff",
    # simulation harness
    "simulate_trimmed": "mc-sim",
    "merge_check": "merge-check",
    "trimmed_merge_check": "trimmed-merge-check",
    "max_pmf_check": "max-check",
    "chernoff_check": "chernoff-check",
    "histogram_fig1": "fig1",
    "oscillation_curve_fig2": "fig2",
}


def _subcommands():
    parser = _build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("no subparsers found")


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_every_operation_has_exactly_one_subcommand():
    subs = _subcommands()
    assert len(MAPPING) == 38
    for op, sub in MAPPING.items():
        assert sub in subs, f"{op} points at unknown subcommand {sub}"
    # repro-all drives the named checks rather than a single operation
    assert set(MAPPING.values()) | {"repro-all"} == subs
    assert len(subs) == 24


def test_exact_tail_pinned_value(capsys):
    rc, out, _ = run(capsys, "exact-tail", "--n", "2", "--x", "6")
    assert rc == 0
    assert out == '{"num":"1","log2_den":1}\n'


def test_xi_vanishes_at_gamma_one(capsys):
    rc, out, _ = run(capsys, "xi", "--gamma", "1.0")
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["xi"]) <= 1e-12


def test_tail_json_fields(capsys):
    rc, out, _ = run(capsys, "tail", "--x", "10", "--truncate-level", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["tail"] == 0.125
    assert doc["cdf"] == 0.875
    assert doc["psi"] == 1.25
    assert 0.0 < doc["frac_log2"] < 1.0
    assert doc["truncated_cdf"] > doc["cdf"]


def test_quantile_value(capsys):
    rc, out, _ = run(capsys, "quantile", "--u", "0.9")
    assert rc == 0
    assert json.loads(out)["value"] == 16.0


def test_trimmed_tail_with_oracle(capsys):
    rc, out, _ = run(capsys, "trimmed-tail", "--n", "3", "--r", "1", "--x", "10", "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["num"], doc["log2_den"]) == ("11", 7)
    assert doc["oracle_agrees"] is True


def test_trimmed_tail_bound_mode(capsys):
    rc, out, _ = run(capsys, "trimmed-tail", "--n", "16", "--r", "1",
                     "--normalized-x", "8.0", "--delta", "0.3", "--bound-c", "1.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["bound"] > 0.0
    # all three bound flags travel together
    rc, _, err = run(capsys, "trimmed-tail", "--n", "16", "--r", "1",
                     "--normalized-x", "8.0")
    assert rc == 2
    assert "error" in err


def test_conv_ratio_endpoints(capsys):
    rc, out, _ = run(capsys, "conv-ratio", "--x", "4095", "--x", "4096")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_estimate,backend"
    vals = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:]}
    assert vals[4095.0] == 2.0
    assert vals[4096.0] == 3.9990234375
    assert all(ln.endswith(",exact") for ln in lines[1:])


def test_asym_tail_csv(capsys):
    rc, out, _ = run(capsys, "asym-tail", "--n", "4", "--r", "1", "--x-dyadic", "10:12:2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,frac_log2,exact,asymptote,ratio,backend"
    for ln in lines[1:]:
        ratio = float(ln.split(",")[4])
        assert 0.9 < ratio < 1.1
    rc, out, _ = run(capsys, "asym-tail", "--n", "4", "--r", "1", "--x", "3e12")
    assert rc == 0
    doc = json.loads(out)
    assert doc["inner_backend"] == "exact" and "inner_ci" not in doc
    assert run(capsys, "asym-tail", "--n", "4", "--x", "100", "--mc-reps", "5")[0] == 2


def test_finer_as_pinned(capsys):
    rc, out, _ = run(capsys, "finer-as", "--n", "2", "--r", "0", "--m", "12", "--c", "6.0")
    assert rc == 0
    assert json.loads(out)["value"] == 0.0006103515625


def test_subexp_limits_snap(capsys):
    rc, out, _ = run(capsys, "subexp-limits", "--p", "0.3333333333333333")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["liminf"], doc["limsup"]) == (2.0, 3.0)


def test_gen_tail_value(capsys):
    rc, out, _ = run(capsys, "gen-tail", "--n", "3", "--r", "0", "--x", "10",
                     "--p", "0.3333333333333333")
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(16.0 / 27.0, rel=1e-12)


def test_limit_cdf_pointwise_and_curve(capsys):
    rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", "--j", "0",
                     "--x", "2.0", "--tol", "1e-8")
    assert rc == 0
    doc = json.loads(out)
    assert doc["backend"] == "quadrature"
    assert doc["error_estimate"] <= 1e-8
    rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", "--j", "0",
                     "--x-lin=-2:6:5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_estimate,backend"
    assert len(lines) == 6
    assert all(ln.endswith(",fft") for ln in lines[1:])
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert vals == sorted(vals)


def test_limit_cdf_tight_budget_exits_3(capsys):
    rc, _, err = run(capsys, "limit-cdf", "--gamma", "1.0", "--x", "2.0")
    assert rc == 3
    assert "inversion" in err


def test_gstar_cdf_curve(capsys):
    rc, out, _ = run(capsys, "gstar-cdf", "--gamma", "1.0", "--x-lin=-1:5:4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_estimate,backend"
    assert all(ln.endswith(",series") for ln in lines[1:])


def test_sample_y_output_shape(capsys):
    argv = ("sample-y", "--r", "0", "--gamma", "1.0", "--truncation", "100",
            "--reps", "5", "--seed", "1")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# sample-y r=0 gamma=1.0 truncation=100 reps=5 seed=1")
    assert lines[1] == "y"
    assert len(lines) == 7
    floats = [float(v) for v in lines[2:]]
    rc, out2, _ = run(capsys, *argv)
    assert out2 == out


def test_y_tail_fields(capsys):
    rc, out, _ = run(capsys, "y-tail", "--r", "0", "--gamma", "1.0", "--x", "96",
                     "--reps", "20000", "--seed", "13")
    assert rc == 0
    doc = json.loads(out)
    assert doc["a_const"] == 0.0
    assert doc["leading"] == 0.015625
    assert doc["value"] == pytest.approx(doc["leading"] * doc["bracket"], rel=1e-12)


def test_centering_closed_form_only_untrimmed(capsys):
    rc, out, _ = run(capsys, "centering", "--n", "8", "--gamma", "1.0", "--r", "0")
    doc = json.loads(out)
    assert doc["centering"] == 3.125
    assert doc["closed"] == 3.125
    rc, out, _ = run(capsys, "centering", "--n", "8", "--gamma", "1.0", "--r", "1")
    assert json.loads(out)["closed"] is None


def test_chernoff_pinned_values(capsys):
    rc, out, _ = run(capsys, "chernoff", "--n", "1024", "--j", "0", "--x", "2.0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["h"] == pytest.approx(0.7725887222397811, rel=1e-15)
    assert doc["bound"] == pytest.approx(0.4618160061831657, rel=1e-12)
    assert doc["cap"] == 10
    assert doc["truncated_mean"] == pytest.approx(10.009775171065494, rel=1e-12)


def test_mc_sim_csv_and_determinism(capsys):
    argv = ("mc-sim", "--n", "4", "--r", "1", "--reps", "5000", "--seed", "2")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_estimate,backend"
    assert all(ln.endswith(",montecarlo") for ln in lines[1:])
    rc, out2, _ = run(capsys, *argv)
    assert out2 == out


def _draws_sha256(n, r, reps, seed):
    s = simulate_trimmed(SimPlan(n=n, r=r, reps=reps, master_seed=seed)).samples
    return hashlib.sha256(np.asarray(s, dtype="<f8").tobytes()).hexdigest()


def test_merge_check_frozen_seed(capsys, monkeypatch):
    # Draws are exact dyadic sums, so they are pinned bit for bit.  Each ks is
    # read off a limit curve made by FFT inversion of a CF built from sin/exp,
    # whose last bits depend on the numpy build and CPU dispatch: the curve's
    # own `error` field is the only promise, so ks is compared within twice
    # that error (two builds may each be off by one error).  This holds for
    # the trimmed value too, whose G* mixture is made of W_{j,gamma} curves.
    assert _draws_sha256(64, 0, 20000, 7) == (
        "1a13cdda711b9b27e4589a302f972157009861a6b4860be2a4c4d5606f2f7559")
    assert _draws_sha256(64, 1, 20000, 7) == (
        "a67fe11bde7ffeb58c648f3e354e32f76b834e42ff07698ad7fe2d52fb17384c")

    rc, out, _ = run(capsys, "merge-check", "--n", "64", "--reps", "20000", "--seed", "7")
    assert rc == 0
    tol = 2.0 * limitlaw.wgamma_cdf_curve(gamma_n(64)).error
    assert tol < 1e-9
    assert json.loads(out)["ks"] == pytest.approx(0.028105620080889307, rel=0, abs=tol)

    used = []
    build = limitlaw.wjg_cdf_curve

    def recording(j, gamma):
        curve = build(j, gamma)
        used.append(curve)
        return curve

    monkeypatch.setattr(limitlaw, "wjg_cdf_curve", recording)
    rc, out, _ = run(capsys, "trimmed-merge-check", "--n", "64", "--reps", "20000", "--seed", "7")
    assert rc == 0
    tol = 2.0 * max(c.error for c in used)
    assert tol < 1e-9
    assert json.loads(out)["ks"] == pytest.approx(0.05349497137572723, rel=0, abs=tol)


def test_max_check_csv(capsys):
    rc, out, _ = run(capsys, "max-check", "--n", "64", "--j-lo", "0", "--j-hi", "2",
                     "--reps", "5000", "--seed", "2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,empirical,weight,deviation,sigma"
    assert len(lines) == 4


def test_chernoff_check_csv(capsys):
    rc, out, _ = run(capsys, "chernoff-check", "--n", "64", "--j", "1",
                     "--reps", "5000", "--seed", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,empirical,bound,sigma,violation"
    assert all(ln.split(",")[4] in ("0", "1") for ln in lines[1:])


def test_fig1_csv(capsys):
    rc, out, _ = run(capsys, "fig1", "--reps", "20000", "--seed", "4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count_untrimmed,count_trimmed"
    total = sum(int(ln.split(",")[2]) for ln in lines[1:])
    assert 0 < total <= 20000


def test_fig2_default_structure(capsys):
    rc, out, _ = run(capsys, "fig2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    by_x = dict(rows)
    vals = np.array([v for _, v in rows])
    n = 16.0
    assert vals.min() >= 0.999 * n
    assert vals.max() <= 4.0 * n
    # just past each power of two the curve sits above n
    for x in (17.0, 33.0, 65.0):
        assert by_x[x] > n
    # at the top of each late octave it comes back to 2n
    for x in (2047.0, 4095.0, 8191.0, 16383.0):
        assert abs(by_x[x] / (2.0 * n) - 1.0) <= 0.02
    # and drops across the boundary while still in the pre-asymptotic zone
    for m in (6, 7, 8):
        assert by_x[float(2**m - 1)] > by_x[float(2**m)]


def test_validation_exits_2(capsys):
    rc, _, err = run(capsys, "exact-tail", "--n", "0", "--x", "4")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "exact-tail", "--n", "4", "--x", str(1 << 1024))
    assert rc == 2 and "x must be a number below 2^1024" in err
    rc, _, err = run(capsys, "quantile", "--u", "1.5")
    assert rc == 2


def test_argparse_failures_exit_2(capsys):
    assert run(capsys, "bogus-subcommand")[0] == 2
    assert run(capsys, "xi", "--gamma", "1.0", "--bogus")[0] == 2
    # stochastic subcommands refuse to run unseeded
    assert run(capsys, "mc-sim", "--n", "4", "--reps", "100")[0] == 2


def test_env_threads_validated(capsys, monkeypatch):
    monkeypatch.setenv("PETERSBURG_THREADS", "abc")
    rc, _, err = run(capsys, "xi", "--gamma", "1.0")
    assert rc == 2
    assert "PETERSBURG_THREADS" in err
    monkeypatch.setenv("PETERSBURG_THREADS", "-3")
    rc, _, err = run(capsys, "xi", "--gamma", "1.0", "--threads", "1")
    assert rc == 2
    assert "PETERSBURG_THREADS" in err
    monkeypatch.setenv("PETERSBURG_THREADS", "8")
    for bad in ("-5", "0"):
        rc, out, err = run(capsys, "xi", "--gamma", "1.0", "--threads", bad)
        assert rc == 2 and out == ""
        assert "--threads" in err
    rc, out, _ = run(capsys, "xi", "--gamma", "1.0")
    monkeypatch.delenv("PETERSBURG_THREADS")
    rc2, out2, _ = run(capsys, "xi", "--gamma", "1.0")
    assert rc == rc2 == 0
    assert out == out2


def test_out_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "xi.json"
    rc, out, _ = run(capsys, "xi", "--gamma", "0.75", "--out", str(target))
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["gamma"] == 0.75
    assert os.listdir(tmp_path) == ["xi.json"]  # no temp litter


def test_out_failure_leaves_nothing(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "f.json"
    rc, _, err = run(capsys, "xi", "--gamma", "1.0", "--out", str(missing))
    assert rc == 2
    assert "error" in err
    assert not (tmp_path / "no_such_dir").exists()


def test_repro_all_quick_config(capsys, tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(
        "# desk-scale overrides\n"
        "merge_reps = 20000\n"
        "y_reps = 200000\n"
        "chernoff_reps = 50000\n"
        "fig1_reps = 100000\n"
        "det_reps = 5000\n"
    )
    report = tmp_path / "report.txt"
    rc, _, err = run(capsys, "repro-all", "--config", str(cfg), "--out", str(report))
    assert rc == 0
    text = report.read_text()
    assert text.strip().endswith("14/14 checks passed")
    assert text.count("PASS") == 14
    assert "FAIL" not in text
    # progress streams to stderr as each check lands
    assert err.count("PASS") == 14


def test_config_keys_come_from_check_signatures():
    keys = [key for _name, _fn, fn_keys in ALL_CHECKS for key in fn_keys]
    # no two checks share a key, so each override reaches exactly one check
    assert len(keys) == len(set(keys)) == len(DEFAULT_CONFIG) == 36
    assert DEFAULT_CONFIG["merge_reps"] == 200_000 and type(DEFAULT_CONFIG["ks_tol"]) is float


def test_repro_all_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("merge_rep = 100\n")
    rc, _, err = run(capsys, "repro-all", "--config", str(cfg))
    assert rc == 2
    assert "merge_rep" in err


def test_repro_all_missing_config(capsys, tmp_path):
    rc, _, err = run(capsys, "repro-all", "--config", str(tmp_path / "nope.cfg"))
    assert rc == 2
    assert "error" in err
