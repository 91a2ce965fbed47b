"""Command-line surface: one subcommand per library operation, pinned output
shapes, exit codes, and the repro-all harness."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import petersburg
from petersburg import limitlaw, montecarlo
from petersburg.checks import ALL_CHECKS, DEFAULT_CONFIG
from petersburg.cli import _build_parser, _csv, _jdump, main
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
    "gstar_cdf": "gstar-cdf",
    "sample_Y": "sample-y",
    "y_tail_parts": "y-tail",
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
    """Subcommand name -> its parser."""
    parser = _build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subparsers found")


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_every_operation_has_exactly_one_subcommand():
    subs = set(_subcommands())
    assert len(MAPPING) == 36
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
    # x^(r+1) leaves the float range here; the power term is exact and underflows
    rc, out, _ = run(capsys, "asym-tail", "--n", "32", "--r", "2", "--x", "1e308")
    assert rc == 0
    doc = json.loads(out)
    assert all(math.isfinite(doc[k]) for k in ("leading", "correction", "inner_prob", "value"))


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
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(16.0 / 27.0, rel=1e-12)
    assert doc["error_estimate"] == 0.0


def test_gen_tail_is_deterministic_and_bracketed():
    # no seed anywhere: two fresh processes print the same bytes, and the
    # printed bracket holds the exact-budget level DP's 0.0120301184
    code = ("from petersburg.cli import main; "
            "main(['gen-tail', '--n', '10', '--p', '0.3', '--x', '1000'])")
    first = _fresh_python(code)
    assert _fresh_python(code) == first
    doc = json.loads(first)
    assert 0.0 < doc["error_estimate"] <= 1e-7
    assert abs(doc["value"] - 0.0120301184) <= doc["error_estimate"]


def test_limit_cdf_pointwise_and_curve(capsys):
    # --x reads the same FFT curve as --x-lin: W_{0,1} with --j, W_1 without
    for j in (("--j", "0"), ()):
        rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", *j, "--x-lin=-2:6:5")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,error_estimate,backend"
        assert len(lines) == 6
        assert all(ln.endswith(",fft") for ln in lines[1:])
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert vals == sorted(vals)
        x, value, error, _ = lines[3].split(",")
        assert x == "2.0"
        rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", *j, "--x", "2.0")
        assert rc == 0
        doc = json.loads(out)
        assert doc["backend"] == "fft"
        assert (doc["value"], doc["error_estimate"]) == (float(value), float(error))
    # W_1 agrees with the independent level-mixture route
    assert doc["value"] == pytest.approx(limitlaw.gmix_cdf(1.0, 2.0), abs=1e-7)
    for flag in ("--tol=1e-4", "--backend=atoms"):
        assert run(capsys, "limit-cdf", "--gamma", "1.0", "--x", "2.0", flag)[0] == 2


def test_limit_cdf_tight_budget_exits_3(capsys):
    # both curves would need far more grid points than the budget: refused
    # before any cf evaluation
    for j in ("30", "-40"):
        start = time.perf_counter()
        rc, out, err = run(capsys, "limit-cdf", "--gamma", "1.0", "--j", j, "--x-lin=0:1:2")
        assert time.perf_counter() - start < 1.0
        assert rc == 3 and out == ""
        assert "inversion" in err and "grid points" in err


def test_limit_cdf_edges(capsys):
    # the W_1 curve ends near 23170: past it the heavy tail is not clamped
    rc, out, err = run(capsys, "limit-cdf", "--gamma", "1.0", "--x", "30000")
    assert rc == 3 and out == "" and "window top 23170." in err
    rc, _, err = run(capsys, "limit-cdf", "--gamma", "1.0", "--x-lin=0:30000:3")
    assert rc == 3 and "window top" in err
    # W_{j,gamma} tails are superexponential, so those curves still clamp
    rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", "--j", "0", "--x", "1e6")
    assert rc == 0 and json.loads(out)["value"] == 1.0
    for x, want in (("inf", 1.0), ("-inf", 0.0)):
        rc, out, _ = run(capsys, "limit-cdf", "--gamma", "1.0", f"--x={x}")
        assert rc == 0
        doc = json.loads(out)
        assert doc["x"] == x and doc["value"] == want
    rc, _, err = run(capsys, "limit-cdf", "--gamma", "1.0", "--x", "nan")
    assert rc == 2 and "x must not be nan" in err


def test_limit_cdf_rejects_bad_gamma(capsys):
    # checked before any arithmetic: the message names the flag, never an
    # inner helper's argument
    for argv, name in (
        (("--gamma", "0", "--j", "0"), "gamma must be positive and finite"),
        (("--gamma", "-1", "--j", "0"), "gamma must be positive and finite"),
        (("--j", "0", "--gamma", "nan"), "gamma must be positive and finite"),
        (("--j", "0", "--gamma", "inf"), "gamma must be positive and finite"),
        (("--gamma", "nan"), "gamma must lie in [1/2, 1]"),
        (("--gamma", "inf"), "gamma must lie in [1/2, 1]"),
        (("--gamma", "-1"), "gamma must lie in [1/2, 1]"),
        (("--gamma", "1", "--j", "2000"), "eta = 2^j/gamma"),
        (("--gamma", "1", "--j", "-1100"), "eta = 2^j/gamma"),
    ):
        rc, out, err = run(capsys, "limit-cdf", *argv, "--x", "1")
        assert rc == 2 and out == "" and name in err, (argv, err)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_is_strict(capsys):
    # non-finite floats print as strings; finite ones as before
    for x in ("inf", "-inf"):
        rc, out, _ = run(capsys, "gstar-cdf", "--gamma", "0.75", f"--x={x}")
        assert rc == 0
        assert json.loads(out, parse_constant=_reject_constant)["x"] == x
    doc = {"a": [1.5, float("nan")], "b": (np.float64(-np.inf), 2), "c": None, "d": 0.1}
    assert _jdump(doc) == '{"a":[1.5,"nan"],"b":["-inf",2],"c":null,"d":0.1}\n'
    finite = {"x": 0.1, "v": [np.float64(1e-300), 3.0], "j": None}
    assert _jdump(finite) == json.dumps(finite, separators=(",", ":")) + "\n"


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(petersburg.__file__)))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return res.stdout


def _imported(*args) -> set:
    """Every module that `python -X importtime *args` imports, in a fresh
    interpreter of its own; the call must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(petersburg.__file__)))
    res = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, env=env, check=True)
    return {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


# what the package and its CLI import only for the subcommands that run it
ON_DEMAND = {"petersburg.exact", "petersburg.asymptotics", "petersburg.limitlaw",
             "petersburg.montecarlo", "dataclasses", "fractions", "numpy", "scipy"}


def test_import_loads_no_scipy():
    # the package and its CLI load stpdist alone; nothing in the package
    # imports scipy, and numpy is imported only by the array subcommands
    assert _imported("-c", "import petersburg, petersburg.cli") & ON_DEMAND == set()


@pytest.mark.parametrize("argv,loads", [
    (["tail", "--x", "100"], set()),
    (["quantile", "--u", "0.9"], set()),
    (["chernoff", "--n", "1024", "--j", "1", "--x", "2"], set()),
    (["exact-tail", "--n", "2", "--x", "6"], {"petersburg.exact"}),
    (["trimmed-tail", "--n", "5", "--r", "1", "--x", "100"], {"petersburg.exact"}),
    (["asym-tail", "--n", "8", "--r", "1", "--x", "300"],
     {"petersburg.exact", "petersburg.asymptotics"}),
    (["finer-as", "--n", "8", "--r", "1", "--m", "10", "--c", "3"],
     {"petersburg.exact", "petersburg.asymptotics"}),
    (["subexp-limits", "--p", "0.3"], {"petersburg.exact", "petersburg.asymptotics"}),
    (["gstar-cdf", "--gamma", "0.75", "--x", "2"], {"petersburg.limitlaw", "numpy"}),
    (["limit-cdf", "--gamma", "1", "--j", "0", "--x", "3"], {"petersburg.limitlaw", "numpy"}),
])
def test_closed_form_calls_load_only_their_engine(argv, loads):
    assert _imported("-m", "petersburg.cli", *argv) & ON_DEMAND == loads


# one argv per subcommand that does no array work
NUMPY_FREE_ARGVS = [
    ["tail", "--x", "10", "--truncate-level", "5"],
    ["quantile", "--u", "0.9"],
    ["exact-tail", "--n", "2", "--x", "6"],
    ["trimmed-tail", "--n", "5", "--r", "1", "--x", "100", "--oracle"],
    ["trimmed-tail", "--n", "5", "--normalized-x", "3", "--delta", "0.3", "--bound-c", "1"],
    ["conv-ratio", "--x-dyadic", "4:6:2"],
    ["asym-tail", "--n", "8", "--r", "1", "--x-dyadic", "4:6:2"],
    ["finer-as", "--n", "8", "--r", "1", "--m", "10", "--c", "3"],
    ["subexp-limits"],
    ["centering", "--n", "5000", "--gamma", "0.75", "--r", "2"],
    ["xi", "--gamma", "0.75"],
    ["chernoff", "--n", "1024", "--j", "1", "--x", "2"],
    ["fig2", "--n", "4", "--xmax", "64"],
]


def test_numpy_free_subcommands_never_load_numpy():
    # one fresh interpreter per argv, so no call inherits another's modules
    assert {argv[0] for argv in NUMPY_FREE_ARGVS} == {
        "tail", "quantile", "exact-tail", "trimmed-tail", "conv-ratio", "asym-tail", "finer-as",
        "subexp-limits", "centering", "xi", "chernoff", "fig2"}
    for argv in NUMPY_FREE_ARGVS:
        assert "numpy" not in _imported("-m", "petersburg.cli", *argv), argv


def test_gstar_cdf_curve(capsys):
    rc, out, _ = run(capsys, "gstar-cdf", "--gamma", "1.0", "--x-lin=-1:5:4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_estimate,backend"
    assert all(ln.endswith(",series") for ln in lines[1:])
    # the error column is the mixture's own estimate, above its 1e-10 level cut
    rc, out, _ = run(capsys, "gstar-cdf", "--gamma", "0.75", "--x-lin=0:5000:3")
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    xs = np.array([float(r[0]) for r in rows])
    errs = [float(r[2]) for r in rows]
    assert errs == list(limitlaw.gstar_cdf_error(0.75, xs))
    # below x = 4096 it varies with the interpolation error near x; above, the
    # collapse deficit and the mass past the far end join in
    assert 1e-10 < min(errs[:2]) and max(errs[:2]) < errs[2]


def test_gstar_cdf_edges(capsys):
    rc, _, err = run(capsys, "gstar-cdf", "--gamma", "0.75", "--x", "nan")
    assert rc == 2 and "x must not be nan" in err
    for x, want in (("inf", 1.0), ("-inf", 0.0)):
        rc, out, _ = run(capsys, "gstar-cdf", "--gamma", "0.75", f"--x={x}")
        assert rc == 0 and json.loads(out)["value"] == want


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


def test_sample_y_rejects_non_finite_gamma(capsys):
    for g in ("nan", "inf", "0"):
        rc, _, err = run(capsys, "sample-y", "--gamma", g, "--reps", "3", "--seed", "1")
        assert rc == 2 and "gamma must be positive and finite" in err
    rc, _, err = run(capsys, "y-tail", "--gamma", "nan", "--x", "10")
    assert rc == 2 and "gamma must be positive and finite" in err


def test_y_tail_fields(capsys):
    rc, out, _ = run(capsys, "y-tail", "--r", "0", "--gamma", "1.0", "--x", "96")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["r", "gamma", "x", "a_const", "leading", "inner0", "inner1",
                         "bracket", "value", "error_estimate"]
    assert doc["a_const"] == 0.0
    assert doc["leading"] == 0.015625
    assert doc["value"] == pytest.approx(doc["leading"] * doc["bracket"], rel=1e-12)
    assert 0.0 < doc["error_estimate"] < 1e-10
    # neither x^(r+1) nor 2^(floor(log2 x) + 1) forms, so x near the float max works
    rc, out, _ = run(capsys, "y-tail", "--gamma", "1", "--x", "1e308", "--r", "2")
    assert rc == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert all(math.isfinite(doc[k])
               for k in ("leading", "inner0", "inner1", "value", "error_estimate"))


def test_y_tail_is_deterministic():
    argv = [sys.executable, "-m", "petersburg.cli", "y-tail", "--r", "1", "--gamma", "0.75",
            "--x", "300"]
    outs = [subprocess.run(argv, capture_output=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] and b"error_estimate" in outs[0]


def _readme_examples() -> list:
    """(argv, stdout) of each command README shows with its exact output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A few examples with their exact output:", 1)[1].split("```")[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.split("\n")
        assert command.startswith("$ petersburg ")
        examples.append((command.split()[2:], "\n".join(output) + "\n"))
    return examples


def test_readme_examples_print_what_readme_shows():
    # each in a fresh process; the merge-check ks passes through the W_gamma
    # curve, so it is compared within twice that curve's error (Determinism)
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == [
        "exact-tail", "tail", "chernoff", "conv-ratio", "merge-check"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(petersburg.__file__)))
    for argv, want in examples:
        got = subprocess.run([sys.executable, "-m", "petersburg.cli", *argv], capture_output=True,
                             text=True, env=env, check=True).stdout
        if argv[0] != "merge-check":
            assert got == want, argv
            continue
        doc, ref = json.loads(got), json.loads(want)
        tol = 2.0 * limitlaw.wgamma_cdf_curve(ref["gamma"]).error
        assert doc.pop("ks") == pytest.approx(ref.pop("ks"), rel=0, abs=tol)
        assert doc == ref


# one cheap argv per subcommand; a subcommand without an entry fails
# test_every_subcommand_prints_the_same_bytes_in_a_fresh_process.  repro-all
# is named a config that does not exist: the fresh process still imports
# every engine through checks before it refuses, and the full run is
# test_repro_all_quick_config's
CHEAP_ARGVS = {
    "tail": "--x 100 --truncate-level 5",
    "quantile": "--u 0.9 --p 0.3",
    "exact-tail": "--n 2 --x 6",
    "trimmed-tail": "--n 5 --r 1 --x 100 --oracle",
    "conv-ratio": "--x-dyadic 4:6:2",
    "asym-tail": "--n 8 --r 1 --x-dyadic 4:6:2",
    "finer-as": "--n 8 --r 1 --m 10 --c 3",
    "subexp-limits": "--alpha 1.5 --p 0.3",
    "gen-tail": "--n 3 --x 1000 --p 0.3",
    "limit-cdf": "--gamma 1 --j 0 --x-lin=-2:6:9",
    "gstar-cdf": "--gamma 0.75 --x-lin=-1:5:4",
    "sample-y": "--gamma 1 --truncation 100 --reps 5 --seed 1",
    "y-tail": "--r 1 --gamma 0.75 --x 300",
    "centering": "--n 5000 --gamma 0.75 --r 2",
    "xi": "--gamma 0.75",
    "chernoff": "--n 1024 --j 1 --x 2",
    "mc-sim": "--n 4 --r 1 --reps 2000 --seed 2",
    "merge-check": "--n 64 --reps 2000 --seed 7",
    "trimmed-merge-check": "--n 64 --reps 2000 --seed 3",
    "max-check": "--n 64 --j-lo 0 --j-hi 2 --reps 5000 --seed 2",
    "chernoff-check": "--n 64 --j 1 --reps 5000 --seed 3",
    "fig1": "--reps 2000 --seed 4",
    "fig2": "--n 4 --xmax 64",
    "repro-all": "--config no-such-petersburg.cfg",
}


def test_every_subcommand_prints_the_same_bytes_in_a_fresh_process(capsys, tmp_path,
                                                                    monkeypatch):
    # the test process holds every module, so only a fresh process shows a
    # handler that runs on an import some other code made for it
    assert set(CHEAP_ARGVS) == set(_subcommands())
    monkeypatch.chdir(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(petersburg.__file__)))
    for name, flags in CHEAP_ARGVS.items():
        argv = [name, *flags.split()]
        fresh = subprocess.run([sys.executable, "-m", "petersburg.cli", *argv],
                               capture_output=True, env=env)
        assert "Traceback" not in fresh.stderr.decode(), argv
        rc, out, _ = run(capsys, *argv)
        assert (fresh.returncode, fresh.stdout) == (rc, out.encode()), argv
        assert rc == (2 if name == "repro-all" else 0), argv


def test_centering_closed_form_only_untrimmed(capsys):
    rc, out, _ = run(capsys, "centering", "--n", "8", "--gamma", "1.0", "--r", "0")
    doc = json.loads(out)
    assert doc["centering"] == 3.125
    assert doc["closed"] == 3.125
    rc, out, _ = run(capsys, "centering", "--n", "8", "--gamma", "1.0", "--r", "1")
    assert json.loads(out)["closed"] is None


def test_chernoff_edge_x(capsys):
    rc, _, err = run(capsys, "chernoff", "--n", "1024", "--j", "1", "--x", "nan")
    assert rc == 2 and "x must not be nan" in err
    rc, out, _ = run(capsys, "chernoff", "--n", "1024", "--j", "1", "--x", "inf")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["x"], doc["h"], doc["bound"]) == ("inf", "inf", 0.0)


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


@pytest.mark.parametrize("alpha,p", [(1.0, 0.5), (1.0, 1.0 / 3.0)])
def test_mc_sim_n1_reads_the_seed_block_stream(capsys, alpha, p):
    # one payoff per replicate comes from the same seed_blocks stream as
    # every other n, so the CSV is simulate_trimmed's at n = 1
    rc, out, _ = run(capsys, "mc-sim", "--n", "1", "--reps", "3000", "--seed", "3",
                     "--alpha", repr(alpha), "--p", repr(p), "--x-lin", "1:9:17")
    assert rc == 0
    params = petersburg.CLASSICAL if p == 0.5 else petersburg.GameParams(alpha, p)
    emp = simulate_trimmed(SimPlan(n=1, r=0, reps=3000, master_seed=3), params)
    rows = [(float(x), emp.tail(x), emp.ci_halfwidth(x), "montecarlo")
            for x in np.linspace(1.0, 9.0, 17)]
    assert out == _csv("x,value,error_estimate,backend", rows)


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

    # the run's curves are those of the term tables of the segments it read,
    # whether each segment was built here or found in the cache
    keys = []
    lookup = limitlaw._segment

    def recording(*key):
        keys.append(key)
        return lookup(*key)

    monkeypatch.setattr(limitlaw, "_segment", recording)
    rc, out, _ = run(capsys, "trimmed-merge-check", "--n", "64", "--reps", "20000", "--seed", "7")
    assert rc == 0
    used = {jj for gamma, star, cut, _ in keys
            for jj in limitlaw._term_table(gamma, star, cut).jj.tolist()}
    assert len(used) >= 10
    tol = 2.0 * max(limitlaw.wjg_cdf_curve(jj, gamma_n(64)).error for jj in used)
    assert tol < 1e-9
    assert json.loads(out)["ks"] == pytest.approx(0.05349497137572723, rel=0, abs=tol)


def test_trimmed_merge_check_reads_curves_when_warm(capsys, monkeypatch):
    # G* is read off cached segments: a warm run builds no segment, and so
    # reads no curve and builds none
    argv = ("trimmed-merge-check", "--n", "64", "--reps", "2000", "--seed", "3")
    rc, first, _ = run(capsys, *argv)
    assert rc == 0
    built = limitlaw._segment.cache_info().misses

    def no_build(j, gamma):
        raise AssertionError(f"warm run built W_{{{j},{gamma}}}")

    monkeypatch.setattr(limitlaw, "_wjg_curve", no_build)
    monkeypatch.setattr(limitlaw, "wjg_cdf_curve", no_build)
    rc, second, _ = run(capsys, *argv)
    assert rc == 0 and second == first
    assert limitlaw._segment.cache_info().misses == built


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
    # each bad value is refused by the library function, which names it
    cases = [
        (("chernoff", "--n", "1024", "--j", "2000", "--x", "1"), "2^2000"),
        (("chernoff", "--n", "1024", "--j", "0", "--x", "1", "--gamma", "0"),
         "gamma must be positive and finite, got 0.0"),
        (("chernoff-check", "--n", "1024", "--j", "2000", "--reps", "10", "--seed", "1"), "2^2000"),
        (("max-check", "--n", "64", "--seed", "1", "--reps", "10", "--j-lo", "5", "--j-hi", "1"),
         "j_lo = 5, j_hi = 1"),
    ]
    # samplers refuse a bad --reps or --seed through seed_blocks
    for argv in (("max-check", "--n", "4"), ("chernoff-check", "--n", "64", "--j", "0"),
                 ("fig1",), ("merge-check", "--n", "64"), ("trimmed-merge-check", "--n", "64")):
        cases.append(((*argv, "--reps", "0", "--seed", "1"), "reps must be >= 1, got 0"))
    cases.append((("mc-sim", "--n", "4", "--reps", "5", "--seed", "-1"),
                  "seed must be a non-negative integer, got -1"))
    # a p whose q = 1 - p rounds to 1 is refused before any draw, as tail does
    cases.append((("mc-sim", "--n", "4", "--reps", "5", "--seed", "1", "--p", "1e-300"),
                  "q = 1 - p rounds to 1 at p = 1e-300"))
    # an output numpy cannot allocate is refused by name before any draw
    cases.append((("sample-y", "--gamma", "1", "--reps", str(1 << 62), "--seed", "1"),
                  f"reps = {1 << 62} draws cannot be allocated"))
    # non-finite thresholds on the generalized-game and finer-as paths
    for game in (("tail",), ("gen-tail", "--n", "3")):
        cases.append(((*game, "--p", "0.3", "--x", "inf"), "x must be finite, got inf"))
    cases.append((("gen-tail", "--n", "3", "--p", "0.3", "--x", "nan"), "x must be finite, got nan"))
    for c in ("nan", "inf"):
        cases.append((("finer-as", "--n", "1", "--m", "5", "--c", c),
                      f"c must lie in (1, inf), got {c}"))
    for width in ("0", "-1", "nan"):
        cases.append((("fig1", "--seed", "1", "--reps", "10", "--bin-width", width),
                      f"bin_width must lie in (0, 25.0], got {float(width)}"))
    for argv, message in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and message in err, (argv, err)


def test_y_tail_refuses_non_finite_x_before_drawing(capsys, monkeypatch):
    # y-tail draws nothing; the refusal comes before the W_gamma curve it reads
    def no_curve(*args, **kwargs):
        raise AssertionError("y-tail built a curve")

    monkeypatch.setattr(limitlaw, "wgamma_cdf_curve", no_curve)
    for x in ("nan", "inf"):
        rc, out, err = run(capsys, "y-tail", "--gamma", "1", "--x", x)
        assert rc == 2 and out == "" and "x must be positive and finite" in err, err


def test_mc_sim_refuses_centered_generalized_before_drawing(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("mc-sim drew payoffs")

    monkeypatch.setattr(montecarlo, "sample_payoffs", no_draw)
    rc, out, err = run(capsys, *"mc-sim --n 4 --reps 2000 --seed 1 --alpha 1.5 --centered".split())
    assert rc == 2 and out == "" and "centered mode is classical-only" in err, err


def test_mc_sim_overflowing_payoffs_print_no_warning(capsys):
    # every payoff at alpha = 1e-300 is past the float range: +inf, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "mc-sim", "--n", "4", "--r", "1", "--reps", "2000",
                           "--seed", "2", "--alpha=1e-300")
    assert rc == 0 and err == "", err
    assert all(line.split(",")[1] == "1.0" for line in out.splitlines()[1:])


def test_merge_checks_refuse_bad_reps_and_seed_before_building(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a limit curve or G* table was built")

    monkeypatch.setattr(montecarlo, "wgamma_cdf_curve", no_build)
    monkeypatch.setattr(montecarlo, "gstar_cdf", no_build)
    for sub in ("merge-check", "trimmed-merge-check"):
        for flags, message in (
            (("--reps", "0", "--seed", "1"), "reps must be >= 1, got 0"),
            (("--reps", "5", "--seed", "-1"), "seed must be a non-negative integer, got -1"),
        ):
            rc, out, err = run(capsys, sub, "--n", "64", *flags)
            assert rc == 2 and out == "" and message in err, (sub, err)


def test_argparse_failures_exit_2(capsys):
    assert run(capsys, "bogus-subcommand")[0] == 2
    assert run(capsys, "xi", "--gamma", "1.0", "--bogus")[0] == 2
    # there is no --threads flag: it fails like any unknown flag
    assert run(capsys, "xi", "--gamma", "1.0", "--threads", "1")[0] == 2
    # nor a --weight-tol flag: the mixture's level cut is a constant
    for tol in ("inf", "nan", "-1"):
        assert run(capsys, "gstar-cdf", "--gamma", "0.8", "--x", "1", "--weight-tol", tol)[0] == 2
    # stochastic subcommands refuse to run unseeded
    assert run(capsys, "mc-sim", "--n", "4", "--reps", "100")[0] == 2
    # y-tail reads a curve, so no seed, sample size or series truncation
    for flag in (("--seed", "1"), ("--reps", "10"), ("--truncation", "10")):
        assert run(capsys, "y-tail", "--gamma", "1.0", "--x", "96", *flag)[0] == 2
    # gen-tail has no Monte Carlo inner term, so no seed and no sample size
    for flag in (("--seed", "1"), ("--mc-reps", "5")):
        assert run(capsys, "gen-tail", "--n", "10", "--p", "0.3", "--x", "1000", *flag)[0] == 2


@pytest.mark.parametrize("argv", [
    "quantile --u 0.999999999999 --alpha 0.01",
    "gen-tail --n 3 --x 1e308 --alpha 1.5",
    "gen-tail --n 3 --x 5 --alpha 1.5 --p 1e-300",
    "limit-cdf --gamma 1 --j -1020 --x 0",
    "y-tail --gamma 1 --x 3 --r 400",
    "max-check --n 4 --j-lo -2000 --j-hi 2 --reps 10 --seed 1",
    "fig1 --n 0 --seed 1 --reps 10",
    "conv-ratio --x-dyadic 4:2000:1",
    "asym-tail --n 8 --r 1 --x-dyadic 4:1100:1",
    "mc-sim --n 4 --reps 10 --seed 1 --x-dyadic 4:2000:1",
])
def test_boundary_inputs_exit_without_a_traceback(capsys, argv):
    # payoffs, weights, factorials and grid octaves past the float range, a p
    # below its resolution and a zero game count: each is answered or refused
    # by name
    rc, _, err = run(capsys, *argv.split())
    assert rc in (0, 2, 3) and "Traceback" not in err, err


@pytest.mark.parametrize("argv,message", [
    ("gstar-cdf --gamma 1 --x-lin 0:1:100000000", "--x-lin: 100000000 points"),
    ("limit-cdf --gamma 1 --x-lin 0:1:1048577", "--x-lin: 1048577 points"),
    ("conv-ratio --x-dyadic 4:1000:100000000000", "--x-dyadic: 99600000000001 points"),
    ("mc-sim --n 4 --reps 10 --seed 1 --x-dyadic 0:1:1048577", "--x-dyadic: 1048578 points"),
    ("conv-ratio --x-dyadic 4:2000:1", "--x-dyadic: the octave 2^2000 lies past the float range"),
])
def test_oversized_grids_are_refused_before_allocating(capsys, argv, message):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 0.1
    assert rc == 2 and out == "" and message in err, err


@pytest.mark.parametrize("argv,later,earlier", [
    ("conv-ratio --x 5 --x-dyadic 4:5:1", "--x-dyadic", "--x"),
    ("asym-tail --n 8 --r 1 --x 300 --x-dyadic 4:6:2", "--x-dyadic", "--x"),
    ("limit-cdf --gamma 1 --j 0 --x 3 --x-lin=0:1:2", "--x-lin", "--x"),
    ("gstar-cdf --gamma 0.75 --x 2 --x-lin=-1:5:4", "--x-lin", "--x"),
    ("mc-sim --n 4 --reps 200 --seed 1 --x-dyadic 4:6:1 --x-lin 1:3:5", "--x-lin", "--x-dyadic"),
    ("mc-sim --n 4 --reps 200 --seed 1 --centered --x-dyadic 4:5:1", "--x-dyadic", "--centered"),
    ("trimmed-tail --n 5 --r 1 --x 10 --normalized-x 3 --delta 0.3 --bound-c 1",
     "--normalized-x", "--x"),
    ("trimmed-tail --n 5 --r 1 --oracle --normalized-x 3 --delta 0.3 --bound-c 1",
     "--oracle", "--normalized-x"),
])
def test_flags_of_two_modes_are_refused_together(capsys, argv, later, earlier):
    # a subcommand's grid flags are mutually exclusive, and so are the flags
    # of its two modes: neither is dropped silently
    rc, out, err = run(capsys, *argv.split())
    assert rc == 2 and out == ""
    assert f"error: argument {later}: not allowed with argument {earlier}\n" in err, err


@pytest.mark.parametrize("argv", ["conv-ratio", "asym-tail --n 8", "limit-cdf --gamma 1",
                                  "gstar-cdf --gamma 1"])
def test_a_grid_is_required(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    assert rc == 2 and out == "" and "one of the arguments --x" in err, err


# the int and float values the boundary sweep sets, one flag at a time
SWEEP_INTS = ("0", "-1", "2000", "-2000")
SWEEP_FLOATS = ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-300")
# not tried, since no refusal predicts their work yet: the ints +-2^62 on
# any flag, and these (subcommand, flag, value)
SWEEP_NOT_TRIED = {
    ("gen-tail", "--n", "2000"),  # exits 0 after about 3 s
}


def _flag_pairs(tokens) -> list:
    """[flag, value or None] pairs of an argv's flags."""
    pairs = []
    for tok in tokens:
        if tok.startswith("--"):
            flag, eq, value = tok.partition("=")
            pairs.append([flag, value if eq else None])
        else:
            pairs[-1][1] = tok
    return pairs


def _sweep_argvs() -> list:
    """Each subcommand's CHEAP_ARGVS entry with one int or float flag set to
    one boundary value as --flag=value, the rest of its mutually exclusive
    group dropped."""
    argvs = []
    for name, sp in _subcommands().items():
        base = _flag_pairs(CHEAP_ARGVS[name].split())
        for action in sp._actions:
            if action.type not in (int, float):
                continue
            flag = action.option_strings[-1]
            rivals = {flag}.union(*(a.option_strings for g in sp._mutually_exclusive_groups
                                    if action in g._group_actions for a in g._group_actions))
            kept = [f if v is None else f"{f}={v}" for f, v in base if f not in rivals]
            for value in SWEEP_INTS if action.type is int else SWEEP_FLOATS:
                if (name, flag, value) not in SWEEP_NOT_TRIED:
                    argvs.append([name, *kept, f"{flag}={value}"])
    return argvs


def test_boundary_sweep_derived_from_the_parser(capsys):
    # every argv exits 0, 2 or 3 without a traceback, and a refusal comes
    # within 0.1 s; each path is imported and its caches warmed first
    for name, flags in CHEAP_ARGVS.items():
        run(capsys, name, *flags.split())
    argvs = _sweep_argvs()
    assert len(argvs) >= 450
    for argv in argvs:
        start = time.perf_counter()
        try:
            rc, _, err = run(capsys, *argv)
        except Exception as exc:
            pytest.fail(f"{argv}: {exc!r}")
        took = time.perf_counter() - start
        assert rc in (0, 2, 3) and "Traceback" not in err, (argv, rc, err)
        assert rc == 0 or took < 0.1, (argv, took)


# the optional flags of every subcommand: a new flag shows up here as a diff
OPTIONAL_FLAGS = {
    "tail": "--alpha --out --p --truncate-level",
    "quantile": "--alpha --out --p",
    "exact-tail": "--out",
    "trimmed-tail": "--bound-c --delta --normalized-x --oracle --out --r --x",
    "conv-ratio": "--out --x --x-dyadic",
    "asym-tail": "--out --r --x --x-dyadic",
    "finer-as": "--out --r",
    "subexp-limits": "--alpha --out --p",
    "gen-tail": "--alpha --out --p --r",
    "limit-cdf": "--j --out --x --x-lin",
    "gstar-cdf": "--out --x --x-lin",
    "sample-y": "--out --r --reps --truncation",
    "y-tail": "--out --r",
    "centering": "--out --r",
    "xi": "--out",
    "chernoff": "--gamma --out",
    "mc-sim": "--alpha --centered --out --p --r --reps --x-dyadic --x-lin",
    "merge-check": "--out --reps",
    "trimmed-merge-check": "--out --reps",
    "max-check": "--j-hi --j-lo --out --reps",
    "chernoff-check": "--out --reps --x",
    "fig1": "--bin-width --n --out --reps",
    "fig2": "--m-lo --n --out --per-octave --xmax",
    "repro-all": "--config --out",
}


def test_optional_flags_are_pinned():
    got = {name: " ".join(sorted(a.option_strings[-1] for a in sp._actions
                                 if a.option_strings and not a.required
                                 and not isinstance(a, argparse._HelpAction)))
           for name, sp in _subcommands().items()}
    assert got == OPTIONAL_FLAGS
    assert sum(len(flags.split()) for flags in got.values()) == 79


def test_seeded_subcommands_are_pinned():
    # the subcommands that sample are exactly those with a required --seed: a
    # new sampler, or a formula that samples again, shows up here as a diff
    seeded = sorted(name for name, sp in _subcommands().items()
                    if any(a.required and "--seed" in a.option_strings for a in sp._actions))
    assert seeded == ["chernoff-check", "fig1", "max-check", "mc-sim", "merge-check",
                      "sample-y", "trimmed-merge-check"]


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
    assert len(keys) == len(set(keys)) == len(DEFAULT_CONFIG) == 16
    assert DEFAULT_CONFIG["merge_reps"] == 200_000 and type(DEFAULT_CONFIG["y_truncation"]) is int
    # a config sets seeds and sample sizes only; pass bounds are constants
    assert all(key.endswith(("_count", "_seed", "_reps", "_truncation")) for key in keys)


def test_repro_all_rejects_pass_bounds(capsys, tmp_path):
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("ks_tol = 1.0\n")
    rc, out, err = run(capsys, "repro-all", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert "ks_tol" in err


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
