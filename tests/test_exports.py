"""Every name a module lists in __all__ exists, so `import *` never breaks."""

import inspect
import pkgutil

import pytest

import petersburg
from petersburg import asymptotics, exact, limitlaw, montecarlo, stpdist

MODULES = ["petersburg"] + [
    f"petersburg.{m.name}" for m in pkgutil.iter_modules(petersburg.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_names_resolve():
    # limit-law and Monte Carlo names load their modules on first access
    for name in petersburg.__all__:
        assert getattr(petersburg, name) is not None, name
    assert not hasattr(petersburg, "no_such_name")


def test_limitlaw_reexports_closed_form_scalars():
    # limitlaw imports only the stpdist names it uses; the rest live in stpdist alone
    for name in ("series_center", "a_const", "xi_and_f", "chernoff_h", "InversionError"):
        assert getattr(limitlaw, name) is getattr(stpdist, name), name
    for name in ("centering", "centering_closed", "chernoff_bound"):
        assert not hasattr(limitlaw, name), name


# every parameter with a default over the public functions of the engines: a
# new knob shows up here as a diff, and one only tests set is a constant
DEFAULTED = {
    "asymptotics": {"gen_snr_tail_rhs": "params", "subexp_limits": "params"},
    "exact": {"enum_oracle": "params", "oscillation_curve_fig2": "m_hi m_lo n per_octave"},
    "limitlaw": {
        "cdf_from_cf": "tol",
        "log_cf_f": "backend",
        "sample_Y": "reps seed truncation",
        "wgamma_cdf_curve": "hi",
    },
    "montecarlo": {
        "chernoff_check": "reps seed xs",
        "histogram_fig1": "bin_width n reps seed",
        "max_pmf_check": "j_hi j_lo reps seed",
        "merge_check": "reps seed",
        "simulate_trimmed": "centered params",
        "trimmed_merge_check": "reps seed",
    },
    "stpdist": {
        "cdf": "params",
        "centering": "r",
        "chernoff_bound": "gamma x",
        "quantile": "params",
        "sample_levels": "params",
        "sample_payoffs": "params",
        "seed_blocks": "row_len",
        "tail": "params",
    },
}


def test_defaulted_parameters_are_pinned():
    got = set()
    for mod in (asymptotics, exact, limitlaw, montecarlo, stpdist):
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                got.update((mod.__name__.rsplit(".", 1)[1], name, p.name)
                           for p in inspect.signature(fn).parameters.values()
                           if p.default is not inspect.Parameter.empty)
    want = {(m, f, p) for m, fns in DEFAULTED.items() for f, ps in fns.items() for p in ps.split()}
    assert got == want
    assert len(want) == 39
