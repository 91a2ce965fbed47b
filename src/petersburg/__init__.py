"""St. Petersburg sums: exact tails, asymptotics, semistable limit laws, simulation.

The exact, asymptotic and closed-form names load with the package and need
no numpy.  The limit-law and Monte Carlo names import their modules, and
numpy with them, on first access.
"""

import importlib

from petersburg.stpdist import (
    CLASSICAL,
    GameParams,
    a_const,
    cdf,
    centering,
    centering_closed,
    chernoff_bound,
    chernoff_h,
    frac_log2,
    floor_log2,
    gamma_n,
    psi,
    quantile,
    sample,
    tail,
    truncated_cdf,
    truncated_moment,
    xi_and_f,
)
from petersburg.exact import (
    DyadicProb,
    conv_ratio_curve,
    enum_oracle,
    oscillation_curve_fig2,
    sum_tail_exact,
    trimmed_tail_exact,
    two_sum_tail_closed,
)
from petersburg.asymptotics import (
    TailAsymptote,
    finer_as_rhs,
    gen_snr_tail_rhs,
    snr_tail_rhs,
    subexp_limits,
    uniform_bound_rhs,
)

# name -> submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        ("CdfCurve", "cf_Wgamma", "cf_Wjgamma", "gstar_cdf", "log_cf_f", "p_weight",
         "r_weight", "sample_Y", "y_tail_rhs"),
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

__all__ = [
    "CLASSICAL",
    "GameParams",
    "cdf",
    "tail",
    "quantile",
    "psi",
    "frac_log2",
    "floor_log2",
    "gamma_n",
    "truncated_cdf",
    "truncated_moment",
    "sample",
    "DyadicProb",
    "sum_tail_exact",
    "trimmed_tail_exact",
    "two_sum_tail_closed",
    "enum_oracle",
    "conv_ratio_curve",
    "TailAsymptote",
    "snr_tail_rhs",
    "finer_as_rhs",
    "subexp_limits",
    "gen_snr_tail_rhs",
    "uniform_bound_rhs",
    "CdfCurve",
    "p_weight",
    "r_weight",
    "log_cf_f",
    "cf_Wjgamma",
    "cf_Wgamma",
    "gstar_cdf",
    "sample_Y",
    "y_tail_rhs",
    "a_const",
    "centering",
    "centering_closed",
    "xi_and_f",
    "chernoff_h",
    "chernoff_bound",
    "EmpiricalTail",
    "SimPlan",
    "simulate_trimmed",
    "merge_check",
    "trimmed_merge_check",
    "max_pmf_check",
    "chernoff_check",
    "histogram_fig1",
    "oscillation_curve_fig2",
]
