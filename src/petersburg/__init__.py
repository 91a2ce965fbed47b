"""St. Petersburg sums: exact tails, asymptotics, semistable limit laws, simulation.

The closed-form names load with the package, from stpdist alone.  The exact,
asymptotic, limit-law and Monte Carlo names import their modules on first
access; the last two bring numpy with them.
"""

import importlib

from petersburg import stpdist as _stpdist

# the closed-form names, bound here from stpdist
_EAGER = (
    "CLASSICAL", "GameParams", "a_const", "cdf", "centering", "centering_closed",
    "chernoff_bound", "chernoff_h", "frac_log2", "floor_log2", "gamma_n", "psi", "quantile",
    "tail", "truncated_cdf", "truncated_moment", "xi_and_f",
)
globals().update((name, getattr(_stpdist, name)) for name in _EAGER)

# name -> submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        ("DyadicProb", "conv_ratio_curve", "enum_oracle", "oscillation_curve_fig2",
         "sum_tail_exact", "trimmed_tail_exact", "two_sum_tail_closed"),
        "exact",
    ),
    **dict.fromkeys(
        ("TailAsymptote", "finer_as_rhs", "gen_snr_tail_rhs", "snr_tail_rhs", "subexp_limits",
         "uniform_bound_rhs"),
        "asymptotics",
    ),
    **dict.fromkeys(
        ("CdfCurve", "cf_Wgamma", "cf_Wjgamma", "gstar_cdf", "log_cf_f", "p_weight",
         "r_weight", "sample_Y", "y_tail_parts"),
        "limitlaw",
    ),
    **dict.fromkeys(
        ("EmpiricalTail", "SimPlan", "chernoff_check", "histogram_fig1", "max_pmf_check",
         "merge_check", "simulate_trimmed", "trimmed_merge_check"),
        "montecarlo",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [*_EAGER, *_LAZY]
