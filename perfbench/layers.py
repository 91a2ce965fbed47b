"""Per-layer metrics, computed from the spans of one traced round.

Every metric is named ``<module>.<function>.<quantity>`` after the public
call it times.  A traced round of any workload reports all of them; a call
the workload never makes reads 0 (zero calls, zero busy time, zero rate).
Rates have the span's own duration as their base: work done inside the call
divided by the seconds spent in it.
"""

from __future__ import annotations

from spans import by_name, durations, median

CLI_SUBCOMMANDS = ("tail", "quantile", "exact-tail", "conv-ratio", "chernoff", "centering",
                   "xi", "gstar-cdf", "trimmed-tail", "merge-check", "limit-cdf")
MC_CHECKS = ("merge_check", "trimmed_merge_check", "chernoff_check", "max_pmf_check",
             "histogram_fig1")
SIM_KEYS = ("n64_r1", "n4096_r0", "n4096_r1")
WG_KEYS = ("gamma1", "gamma_lo", "gamma_hi")

# (name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    [("exact.sum_tail_exact.calls", "count", "lower"),
     ("exact.sum_tail_exact.busy_s", "s", "lower"),
     ("exact.sum_tail_exact.p50_us", "us", "lower"),
     ("exact.sum_tail_exact.max_ms", "ms", "lower"),
     ("exact.trimmed_tail_exact.calls", "count", "lower"),
     ("exact.trimmed_tail_exact.busy_s", "s", "lower"),
     ("exact.trimmed_tail_exact.p50_ms", "ms", "lower"),
     ("exact.result_bits", "count", "lower"),
     ("exact.enum_oracle.busy_s", "s", "lower"),
     ("asymptotics.snr_tail_rhs.calls", "count", "lower"),
     ("asymptotics.snr_tail_rhs.busy_s", "s", "lower"),
     ("stpdist.sample_levels.draws_per_s", "1/s", "higher")]
    + [(f"montecarlo.simulate_trimmed.{k}.games_per_s", "1/s", "higher") for k in SIM_KEYS]
    + [(f"montecarlo.{f}.{q}", u, b) for f in MC_CHECKS
       for q, u, b in (("busy_s", "s", "lower"), ("games_per_s", "1/s", "higher"))]
    + [("limitlaw.cf_Wgamma.points_per_s", "1/s", "higher"),
       ("limitlaw.log_cf_f.points_per_s", "1/s", "higher")]
    + [(f"limitlaw.wgamma_cdf_curve.{k}.{q}", u, "lower") for k in WG_KEYS
       for q, u in (("build_s", "s"), ("grid_points", "count"), ("error", "prob"))]
    + [("limitlaw.wjg_cdf_curve.builds", "count", "lower"),
       ("limitlaw.wjg_cdf_curve.build_s", "s", "lower"),
       ("limitlaw.cdf_from_cf.point_s", "s", "lower"),
       ("limitlaw.gstar_cdf.cold.points_per_s", "1/s", "higher"),
       ("limitlaw.gstar_cdf.warm.points_per_s", "1/s", "higher"),
       ("limitlaw.sample_Y.draws_per_s", "1/s", "higher"),
       ("cli.import_s", "s", "lower")]
    + [(f"cli.{sub}.{q}", "ms", "lower") for sub in CLI_SUBCOMMANDS
       for q in ("cold_ms", "inproc_ms")]
    + [("harness.trace_overhead_s", "s", "lower"),
       ("harness.unspanned_s", "s", "lower")]
)


def _rate(group: list, work: str) -> float:
    spans = [s for s in group if work in s]
    busy = sum(durations(spans))
    return sum(s[work] for s in spans) / busy if busy > 0 else 0.0


def layer_metrics(spans: list, counts: dict) -> dict:
    """All per-layer metrics of one traced round except harness.trace_overhead_s,
    which needs the untraced rounds too."""
    g = by_name(spans)

    def keyed(name, key):
        return [s for s in g[name] if s.get("key") == key]

    m = {}
    d = durations(g["exact.sum_tail_exact"])
    m["exact.sum_tail_exact.calls"] = len(d)
    m["exact.sum_tail_exact.busy_s"] = sum(d)
    m["exact.sum_tail_exact.p50_us"] = median(d) * 1e6
    m["exact.sum_tail_exact.max_ms"] = max(d, default=0.0) * 1e3
    d = durations(g["exact.trimmed_tail_exact"])
    m["exact.trimmed_tail_exact.calls"] = len(d)
    m["exact.trimmed_tail_exact.busy_s"] = sum(d)
    m["exact.trimmed_tail_exact.p50_ms"] = median(d) * 1e3
    m["exact.result_bits"] = counts.get("exact.result_bits", 0)
    m["exact.enum_oracle.busy_s"] = sum(durations(g["exact.enum_oracle"]))
    d = durations(g["asymptotics.snr_tail_rhs"])
    m["asymptotics.snr_tail_rhs.calls"] = len(d)
    m["asymptotics.snr_tail_rhs.busy_s"] = sum(d)
    m["stpdist.sample_levels.draws_per_s"] = _rate(g["stpdist.sample_levels"], "draws")
    for k in SIM_KEYS:
        m[f"montecarlo.simulate_trimmed.{k}.games_per_s"] = _rate(
            keyed("montecarlo.simulate_trimmed", k), "games")
    for f in MC_CHECKS:
        group = g[f"montecarlo.{f}"]
        m[f"montecarlo.{f}.busy_s"] = sum(durations(group))
        m[f"montecarlo.{f}.games_per_s"] = _rate(group, "games")
    m["limitlaw.cf_Wgamma.points_per_s"] = _rate(g["limitlaw.cf_Wgamma"], "points")
    m["limitlaw.log_cf_f.points_per_s"] = _rate(g["limitlaw.log_cf_f"], "points")
    for k in WG_KEYS:
        group = keyed("limitlaw.wgamma_cdf_curve", k)
        m[f"limitlaw.wgamma_cdf_curve.{k}.build_s"] = sum(durations(group))
        m[f"limitlaw.wgamma_cdf_curve.{k}.grid_points"] = sum(s.get("grid_points", 0) for s in group)
        m[f"limitlaw.wgamma_cdf_curve.{k}.error"] = max((s.get("error", 0.0) for s in group), default=0.0)
    d = durations(g["limitlaw.wjg_cdf_curve"])
    m["limitlaw.wjg_cdf_curve.builds"] = len(d)
    m["limitlaw.wjg_cdf_curve.build_s"] = sum(d)
    m["limitlaw.cdf_from_cf.point_s"] = median(durations(g["limitlaw.cdf_from_cf"]))
    for k in ("cold", "warm"):
        m[f"limitlaw.gstar_cdf.{k}.points_per_s"] = _rate(keyed("limitlaw.gstar_cdf", k), "points")
    m["limitlaw.sample_Y.draws_per_s"] = _rate(g["limitlaw.sample_Y"], "draws")
    m["cli.import_s"] = median(durations(g["cli.import"]))
    for sub in CLI_SUBCOMMANDS:
        for q in ("cold", "inproc"):
            m[f"cli.{sub}.{q}_ms"] = median(durations(g[f"cli.{sub}.{q}"])) * 1e3
    return m
