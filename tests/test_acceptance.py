"""Acceptance gate: each test drives one named check from petersburg.checks
at its recorded fixture settings and reports the one-line verdict.

Run with -v (or -s) to see the per-criterion PASS lines; `petersburg repro-all`
produces the same report from the command line.
"""

from petersburg import checks


def _verdict(res):
    print(res.line())
    assert res.passed, res.line()


def test_two_sum_closed_form_matches_exact_table():
    _verdict(checks.check_two_sum_closed_form())


def test_trimmed_exact_matches_brute_enumeration():
    _verdict(checks.check_trimmed_exact_vs_enumeration())


def test_trimmed_tail_approaches_asymptote():
    _verdict(checks.check_trimmed_tail_asymptote())


def test_oscillation_band_and_extremes():
    _verdict(checks.check_oscillation_band())


def test_two_sum_convolution_ratio_endpoints():
    _verdict(checks.check_two_sum_convolution_ratio())


def test_level_and_repeat_weights_normalize():
    _verdict(checks.check_weight_normalization())


def test_cf_moments_and_backend_agreement():
    _verdict(checks.check_cf_moments_and_backends())


def test_merging_ks_shrinks_with_n():
    _verdict(checks.check_merging_ks())


def test_series_tail_bracket_holds():
    _verdict(checks.check_y_tail_bracket())


def test_centering_identities_hold():
    _verdict(checks.check_centering_identities())


def test_chernoff_bounds_and_envelopes():
    _verdict(checks.check_chernoff_bounds())


def test_generalized_game_limits_and_tails():
    _verdict(checks.check_generalized_game())


def test_figure_shapes_reproduce():
    _verdict(checks.check_figure_shapes())


def test_cli_output_identical_across_processes_and_sinks():
    _verdict(checks.check_output_determinism())
