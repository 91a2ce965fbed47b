"""Command-line front end.

One subcommand per family of operations, JSON for scalars and exact
rationals, CSV for curves.  Output is a pure function of the flags: every
stochastic subcommand requires --seed, and the --threads flag (or the
PETERSBURG_THREADS variable) must be >= 1 but is advisory only and never
changes results.

Exit codes: 0 success, 2 invalid flag value (the message names the flag),
3 a limit-law curve cannot answer (its inversion failed, or a W_gamma point
lies above the curve's window).  JSON is strict: non-finite floats print as
the strings "inf", "-inf" and "nan".  Output files are written atomically,
so a failing run leaves no partial file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from petersburg.asymptotics import (
    finer_as_rhs,
    gen_snr_tail_rhs,
    ratio_table,
    snr_tail_rhs,
    subexp_limits,
    uniform_bound_rhs,
)
from petersburg.exact import (
    conv_ratio_curve,
    dyadic_grid,
    enum_oracle,
    oscillation_curve_fig2,
    sum_tail_exact,
    trimmed_tail_exact,
    two_sum_tail_closed,
)
from petersburg.stpdist import (
    CLASSICAL,
    GameParams,
    InversionError,
    a_const,
    cdf,
    centering,
    centering_closed,
    chernoff_bound,
    chernoff_h,
    frac_log2,
    gamma_n,
    psi,
    quantile,
    sample,
    tail,
    truncated_cdf,
    truncated_moment,
    xi_and_f,
)

# The exact and closed-form subcommands need none of numpy, limitlaw or
# montecarlo; handlers that work on arrays import them, so a cold call of
# any other subcommand never pays their import.

__all__ = ["main"]


def _jdump(obj) -> str:
    return json.dumps(_strict(obj), separators=(",", ":"), allow_nan=False) + "\n"


def _strict(v):
    # JSON has no inf or nan: they print as the strings "inf", "-inf", "nan"
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, dict):
        return {k: _strict(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(u) for u in v]
    return v


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    # temp file in the target directory, renamed on success: a failure
    # partway through a write cannot leave a truncated output file
    d = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".petersburg-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _params(args) -> GameParams:
    alpha = getattr(args, "alpha", 1.0)
    p = getattr(args, "p", 0.5)
    if alpha == 1.0 and p == 0.5:
        return CLASSICAL
    return GameParams(alpha, p)


def _parse_dyadic(spec: str, flag: str) -> list:
    try:
        m0, m1, ppo = (int(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"{flag} must look like m0:m1:points-per-octave")
    if m0 >= m1:
        raise ValueError(f"{flag}: need m0 < m1")
    if ppo < 1:
        raise ValueError(f"{flag}: need at least one point per octave")
    return dyadic_grid(m0, m1, ppo)


def _parse_lin(spec: str, flag: str):
    import numpy as np

    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError(f"{flag} must look like lo:hi:count")
    if not lo < hi:
        raise ValueError(f"{flag}: need lo < hi")
    if count < 2:
        raise ValueError(f"{flag}: need count >= 2")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------- scalar ops


def _cmd_tail(args) -> int:
    params = _params(args)
    out = {
        "x": args.x,
        "alpha": params.alpha,
        "p": params.p,
        "tail": tail(args.x, params),
        "cdf": cdf(args.x, params),
    }
    if args.x > 0:
        out["psi"] = psi(args.x)
        out["frac_log2"] = frac_log2(args.x)
    if args.truncate_level is not None:
        out["truncated_cdf"] = truncated_cdf(args.x, args.truncate_level)
    _emit(args, _jdump(out))
    return 0


def _cmd_quantile(args) -> int:
    params = _params(args)
    _emit(args, _jdump({"u": args.u, "alpha": params.alpha, "p": params.p,
                        "value": quantile(args.u, params)}))
    return 0


def _two_pow_split(x: int):
    if x & (x - 1) == 0 and x >= 4:
        return x.bit_length() - 2, x.bit_length() - 2
    bits = [i for i in range(x.bit_length()) if x >> i & 1]
    if len(bits) == 2 and bits[0] >= 1:
        return bits[0], bits[1]
    return None


def _cmd_exact_tail(args) -> int:
    dp = sum_tail_exact(args.n, args.x)
    if args.n == 2 and args.x >= 0:
        split = _two_pow_split(args.x)
        if split is not None:
            if two_sum_tail_closed(*split) != dp:
                raise RuntimeError("closed two-sum form disagrees with the exact engine")
    _emit(args, _jdump(dp.to_json()))
    return 0


def _cmd_trimmed_tail(args) -> int:
    bound_flags = (args.normalized_x, args.delta, args.bound_c)
    if any(v is not None for v in bound_flags):
        for flag, v in zip(("--normalized-x", "--delta", "--bound-c"), bound_flags):
            if v is None:
                raise ValueError(f"{flag} is required together with the other bound flags")
        value = uniform_bound_rhs(args.n, args.r, args.normalized_x, args.delta, args.bound_c)
        _emit(args, _jdump({"n": args.n, "r": args.r, "x": args.normalized_x,
                            "delta": args.delta, "c": args.bound_c, "bound": value}))
        return 0
    dp = trimmed_tail_exact(args.n, args.r, args.x)
    out = dp.to_json()
    if args.oracle:
        out["oracle_agrees"] = enum_oracle(args.n, args.r, args.x) == dp
    _emit(args, _jdump(out))
    return 0


def _cmd_conv_ratio(args) -> int:
    if args.x_dyadic is not None:
        xs = _parse_dyadic(args.x_dyadic, "--x-dyadic")
    elif args.x:
        xs = list(args.x)
    else:
        raise ValueError("--x or --x-dyadic is required")
    rows = [(x, v, 0.0, "exact") for x, v in conv_ratio_curve(xs)]
    _emit(args, _csv("x,value,error_estimate,backend", rows))
    return 0


def _cmd_asym_tail(args) -> int:
    if args.x_dyadic is not None:
        xs = _parse_dyadic(args.x_dyadic, "--x-dyadic")
        rows = ratio_table(args.n, args.r, xs)
        _emit(args, _csv("x,frac_log2,exact,asymptote,ratio,backend", rows))
        return 0
    if args.x is None:
        raise ValueError("--x or --x-dyadic is required")
    asym = snr_tail_rhs(args.n, args.r, args.x)
    _emit(args, _jdump({
        "n": args.n, "r": args.r, "x": args.x,
        "leading": asym.leading, "correction": asym.correction,
        "inner_prob": asym.inner_prob, "inner_backend": asym.inner_backend,
        "value": asym.value,
    }))
    return 0


def _cmd_finer_as(args) -> int:
    value = finer_as_rhs(args.n, args.r, args.m, args.c)
    _emit(args, _jdump({"n": args.n, "r": args.r, "m": args.m, "c": args.c, "value": value}))
    return 0


def _cmd_subexp_limits(args) -> int:
    lo, hi = subexp_limits(_params(args))
    _emit(args, _jdump({"alpha": args.alpha, "p": args.p, "liminf": lo, "limsup": hi}))
    return 0


def _cmd_gen_tail(args) -> int:
    value = gen_snr_tail_rhs(args.n, args.r, args.x, params=_params(args),
                             mc_reps=args.mc_reps, mc_seed=args.seed)
    _emit(args, _jdump({"n": args.n, "r": args.r, "x": args.x,
                        "alpha": args.alpha, "p": args.p, "value": value}))
    return 0


# ------------------------------------------------------------ limit law ops


def _cmd_limit_cdf(args) -> int:
    import numpy as np

    from petersburg.limitlaw import wgamma_cdf_curve, wjg_cdf_curve

    if args.x_lin is not None:
        xs = _parse_lin(args.x_lin, "--x-lin")
    elif args.x is not None:
        xs = np.array([args.x])
    else:
        raise ValueError("--x or --x-lin is required")
    if np.isnan(xs).any():
        raise ValueError("x must not be nan")
    if args.j is not None:
        curve = wjg_cdf_curve(args.j, args.gamma)
    else:
        curve = wgamma_cdf_curve(args.gamma)
        # the W_gamma tail is ~1/x, so the clamp to 1 past the window is no
        # answer; W_{j,gamma} tails are superexponential and may clamp
        top = curve.x0 + curve.dx * (len(curve.cdf) - 1)
        if np.any((xs > top) & np.isfinite(xs)):
            raise InversionError(f"x lies above the W_gamma curve's window top {top!r}")
    vals = curve.eval(xs)
    if args.x_lin is None:
        _emit(args, _jdump({"j": args.j, "gamma": args.gamma, "x": args.x,
                            "value": float(vals[0]), "error_estimate": curve.error,
                            "backend": "fft"}))
        return 0
    rows = [(float(x), float(v), curve.error, "fft") for x, v in zip(xs, vals)]
    _emit(args, _csv("x,value,error_estimate,backend", rows))
    return 0


def _cmd_gstar_cdf(args) -> int:
    from petersburg.limitlaw import gstar_cdf, gstar_cdf_error

    if args.x_lin is not None:
        xs = _parse_lin(args.x_lin, "--x-lin")
        vals = gstar_cdf(args.gamma, xs, weight_tol=args.weight_tol)
        errs = gstar_cdf_error(args.gamma, xs, weight_tol=args.weight_tol)
        rows = [(float(x), float(v), float(e), "series") for x, v, e in zip(xs, vals, errs)]
        _emit(args, _csv("x,value,error_estimate,backend", rows))
        return 0
    if args.x is None:
        raise ValueError("--x or --x-lin is required")
    value = float(gstar_cdf(args.gamma, args.x, weight_tol=args.weight_tol))
    _emit(args, _jdump({"gamma": args.gamma, "x": args.x, "value": value}))
    return 0


def _cmd_sample_y(args) -> int:
    from petersburg.limitlaw import sample_Y

    ys = sample_Y(args.r, args.gamma, truncation=args.truncation,
                  reps=args.reps, seed=args.seed)
    head = (f"# sample-y r={args.r} gamma={args.gamma!r} "
            f"truncation={args.truncation} reps={args.reps} seed={args.seed}")
    body = "\n".join(repr(float(v)) for v in ys)
    _emit(args, f"{head}\ny\n{body}\n")
    return 0


def _cmd_y_tail(args) -> int:
    from petersburg.limitlaw import y_tail_parts

    parts = y_tail_parts(args.r, args.gamma, args.x, truncation=args.truncation,
                         reps=args.reps, seed=args.seed)
    out = {"r": args.r, "gamma": args.gamma, "x": args.x, "a_const": a_const(args.r, args.gamma)}
    out.update(parts)
    _emit(args, _jdump(out))
    return 0


def _cmd_centering(args) -> int:
    out = {"n": args.n, "gamma": args.gamma, "r": args.r,
           "centering": centering(args.n, args.gamma, args.r),
           "closed": centering_closed(args.n, args.gamma) if args.r == 0 else None}
    _emit(args, _jdump(out))
    return 0


def _cmd_xi(args) -> int:
    xi, f = xi_and_f(args.gamma)
    _emit(args, _jdump({"gamma": args.gamma, "xi": xi, "f": f}))
    return 0


def _cmd_chernoff(args) -> int:
    g = args.gamma if args.gamma is not None else gamma_n(args.n)
    cap = (args.n - 1).bit_length() + args.j
    if cap < 1:
        raise ValueError("--j leaves no payoff levels below the cap")
    _emit(args, _jdump({
        "n": args.n, "j": args.j, "gamma": g, "eta": 2.0**args.j / g,
        "x": args.x, "h": chernoff_h(args.x),
        "bound": chernoff_bound(args.n, args.j, args.gamma, args.x),
        "cap": cap, "truncated_mean": truncated_moment(1, cap),
    }))
    return 0


# ----------------------------------------------------------- simulation ops


def _cmd_mc_sim(args) -> int:
    from petersburg.montecarlo import EmpiricalTail, SimPlan, simulate_trimmed

    params = _params(args)
    if args.x_dyadic is not None and args.x_lin is not None:
        raise ValueError("--x-dyadic and --x-lin are mutually exclusive")
    if args.centered:
        xs = _parse_lin(args.x_lin or "-2:30:65", "--x-lin")
    elif args.x_lin is not None:
        xs = _parse_lin(args.x_lin, "--x-lin")
    else:
        xs = _parse_dyadic(args.x_dyadic or "4:14:2", "--x-dyadic")
    if args.n == 1 and args.r == 0 and not args.centered:
        emp = EmpiricalTail.from_samples(sample(params, args.reps, args.seed))
    else:
        plan = SimPlan(n=args.n, r=args.r, reps=args.reps, master_seed=args.seed)
        emp = simulate_trimmed(plan, params, centered=args.centered)
    rows = [(float(x), emp.tail(x), emp.ci_halfwidth(x), "montecarlo") for x in xs]
    _emit(args, _csv("x,value,error_estimate,backend", rows))
    return 0


def _cmd_merge_check(args) -> int:
    from petersburg.montecarlo import merge_check

    _emit(args, _jdump(merge_check(args.n, reps=args.reps, seed=args.seed)))
    return 0


def _cmd_trimmed_merge_check(args) -> int:
    from petersburg.montecarlo import trimmed_merge_check

    _emit(args, _jdump(trimmed_merge_check(args.n, reps=args.reps, seed=args.seed)))
    return 0


def _cmd_max_check(args) -> int:
    from petersburg.montecarlo import max_pmf_check

    res = max_pmf_check(args.n, j_lo=args.j_lo, j_hi=args.j_hi,
                        reps=args.reps, seed=args.seed)
    rows = [(row["j"], row["empirical"], row["weight"], row["deviation"], row["sigma"])
            for row in res["rows"]]
    _emit(args, _csv("j,empirical,weight,deviation,sigma", rows))
    return 0


def _cmd_chernoff_check(args) -> int:
    from petersburg.montecarlo import chernoff_check

    xs = tuple(args.x) if args.x else (0.5, 1.0, 2.0, 4.0)
    res = chernoff_check(args.n, args.j, xs=xs, reps=args.reps, seed=args.seed)
    rows = [(row["x"], row["empirical"], row["bound"], row["sigma"], bool(row["violation"]))
            for row in res["rows"]]
    _emit(args, _csv("x,empirical,bound,sigma,violation", rows))
    return 0


def _cmd_fig1(args) -> int:
    from petersburg.montecarlo import histogram_fig1

    res = histogram_fig1(n=args.n, reps=args.reps, seed=args.seed,
                         bin_width=args.bin_width)
    edges = res["edges"]
    rows = [(float(lo), float(hi), int(cu), int(ct))
            for lo, hi, cu, ct in zip(edges[:-1], edges[1:],
                                      res["counts_untrimmed"], res["counts_trimmed"])]
    _emit(args, _csv("bin_lo,bin_hi,count_untrimmed,count_trimmed", rows))
    return 0


def _cmd_fig2(args) -> int:
    if args.xmax < 4 or args.xmax & (args.xmax - 1) != 0:
        raise ValueError("--xmax must be a power of two, at least 4")
    m_hi = args.xmax.bit_length() - 1
    if args.m_lo >= m_hi:
        raise ValueError("--m-lo must sit below log2 of --xmax")
    rows = oscillation_curve_fig2(n=args.n, m_lo=args.m_lo, m_hi=m_hi,
                                  per_octave=args.per_octave)
    _emit(args, _csv("x,value", rows))
    return 0


# -------------------------------------------------------------- repro-all


def _load_config(path: str) -> dict:
    from petersburg.checks import DEFAULT_CONFIG

    merged = dict(DEFAULT_CONFIG)
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"--config: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"--config line {lineno}: expected key=value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in merged:
                raise ValueError(f"--config names unknown key {key!r}")
            kind = type(merged[key])
            try:
                merged[key] = kind(val)
            except ValueError:
                raise ValueError(f"--config key {key!r} needs a {kind.__name__}")
    return merged


def _cmd_repro_all(args) -> int:
    from petersburg.checks import ALL_CHECKS, DEFAULT_CONFIG

    config = _load_config(args.config) if args.config else dict(DEFAULT_CONFIG)
    lines = ["repro-all report",
             f"config: {args.config if args.config else 'defaults'}"]
    failures = 0
    for name, fn, keys in ALL_CHECKS:
        res = fn(**{k: config[k] for k in keys})
        failures += 0 if res.passed else 1
        lines.append(res.line())
        print(res.line(), file=sys.stderr)
    lines.append(f"{len(ALL_CHECKS) - failures}/{len(ALL_CHECKS)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ parser


def _add_game_flags(sp) -> None:
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--p", type=float, default=0.5)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petersburg",
        description="Exact, asymptotic, limit-law, and simulated tails of "
                    "St. Petersburg sums and trimmed sums.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--threads", type=int, default=None,
                        help="advisory worker count; never affects results")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("tail", parents=[common], help="tail and cdf of one payoff")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--truncate-level", type=int, default=None)
    _add_game_flags(sp)
    sp.set_defaults(func=_cmd_tail)

    sp = sub.add_parser("quantile", parents=[common], help="payoff quantile")
    sp.add_argument("--u", type=float, required=True)
    _add_game_flags(sp)
    sp.set_defaults(func=_cmd_quantile)

    sp = sub.add_parser("exact-tail", parents=[common],
                        help="exact dyadic tail of the n-round sum")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=_cmd_exact_tail)

    sp = sub.add_parser("trimmed-tail", parents=[common],
                        help="exact dyadic tail of the trimmed sum, or its uniform bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--x", type=int, default=0)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against brute enumeration (n <= 5)")
    sp.add_argument("--normalized-x", type=float, default=None,
                    help="evaluate the uniform tail bound at this normalized x")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--bound-c", type=float, default=None)
    sp.set_defaults(func=_cmd_trimmed_tail)

    sp = sub.add_parser("conv-ratio", parents=[common],
                        help="two-sum tail over one-payoff tail")
    sp.add_argument("--x", type=float, action="append")
    sp.add_argument("--x-dyadic", help="grid spec m0:m1:points-per-octave")
    sp.set_defaults(func=_cmd_conv_ratio)

    sp = sub.add_parser("asym-tail", parents=[common],
                        help="first-order trimmed-tail asymptote, or a ratio table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--x-dyadic", help="grid spec m0:m1:points-per-octave")
    sp.set_defaults(func=_cmd_asym_tail)

    sp = sub.add_parser("finer-as", parents=[common],
                        help="sharpened asymptote at x = c*2^m")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.set_defaults(func=_cmd_finer_as)

    sp = sub.add_parser("subexp-limits", parents=[common],
                        help="liminf and limsup of the subexponential ratio")
    _add_game_flags(sp)
    sp.set_defaults(func=_cmd_subexp_limits)

    sp = sub.add_parser("gen-tail", parents=[common],
                        help="trimmed-tail asymptote for generalized games")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--x", type=float, required=True)
    _add_game_flags(sp)
    sp.add_argument("--mc-reps", type=int, default=400_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_gen_tail)

    sp = sub.add_parser("limit-cdf", parents=[common],
                        help="semistable limit CDF from its FFT curve, at a point or on a grid")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--x-lin", help="grid spec lo:hi:count (write --x-lin=-2:6:9 for negative lo)")
    sp.set_defaults(func=_cmd_limit_cdf)

    sp = sub.add_parser("gstar-cdf", parents=[common],
                        help="limit CDF of the max-trimmed sum")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--x-lin", help="grid spec lo:hi:count")
    sp.add_argument("--weight-tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_gstar_cdf)

    sp = sub.add_parser("sample-y", parents=[common],
                        help="seeded draws from the trimmed limit series")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--truncation", type=int, default=10_000)
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_sample_y)

    sp = sub.add_parser("y-tail", parents=[common],
                        help="bracketed tail formula for the limit series")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--truncation", type=int, default=10_000)
    sp.add_argument("--reps", type=int, default=200_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_y_tail)

    sp = sub.add_parser("centering", parents=[common],
                        help="merging centering constants")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.set_defaults(func=_cmd_centering)

    sp = sub.add_parser("xi", parents=[common],
                        help="dyadic drift constant and its companion")
    sp.add_argument("--gamma", type=float, required=True)
    sp.set_defaults(func=_cmd_xi)

    sp = sub.add_parser("chernoff", parents=[common],
                        help="exponential bound for the capped normalized sum")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=None)
    sp.set_defaults(func=_cmd_chernoff)

    sp = sub.add_parser("mc-sim", parents=[common],
                        help="empirical tail of the (trimmed) sum")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--reps", type=int, default=100_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--centered", action="store_true",
                    help="normalize by n and subtract the merging centering")
    sp.add_argument("--x-dyadic", help="grid spec m0:m1:points-per-octave")
    sp.add_argument("--x-lin", help="grid spec lo:hi:count")
    _add_game_flags(sp)
    sp.set_defaults(func=_cmd_mc_sim)

    sp = sub.add_parser("merge-check", parents=[common],
                        help="KS distance of the normalized sum to its limit")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=200_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_merge_check)

    sp = sub.add_parser("trimmed-merge-check", parents=[common],
                        help="KS distance of the max-trimmed sum to its limit")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=200_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_trimmed_merge_check)

    sp = sub.add_parser("max-check", parents=[common],
                        help="empirical pmf of the maximum payoff level")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j-lo", type=int, default=-3)
    sp.add_argument("--j-hi", type=int, default=6)
    sp.add_argument("--reps", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_max_check)

    sp = sub.add_parser("chernoff-check", parents=[common],
                        help="empirical exceedance against the exponential bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--x", type=float, action="append")
    sp.add_argument("--reps", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_chernoff_check)

    sp = sub.add_parser("fig1", parents=[common],
                        help="log2 histograms of the sum and the max-trimmed sum")
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--reps", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--bin-width", type=float, default=0.25)
    sp.set_defaults(func=_cmd_fig1)

    sp = sub.add_parser("fig2", parents=[common],
                        help="oscillation curve x * P{S_n > x} on a dyadic grid")
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--xmax", type=int, default=16384)
    sp.add_argument("--m-lo", type=int, default=4)
    sp.add_argument("--per-octave", type=int, default=32)
    sp.set_defaults(func=_cmd_fig2)

    sp = sub.add_parser("repro-all", parents=[common],
                        help="run every acceptance check and write a report")
    sp.add_argument("--config", default=None,
                    help="key=value overrides for seeds, reps, tolerances")
    sp.set_defaults(func=_cmd_repro_all)

    return parser


def _is_positive_int(value) -> bool:
    try:
        return int(value) >= 1
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # --threads and PETERSBURG_THREADS are advisory: a bad value is rejected,
    # a good one ignored
    for name, value in (("--threads", args.threads),
                        ("PETERSBURG_THREADS", os.environ.get("PETERSBURG_THREADS"))):
        if value is not None and not _is_positive_int(value):
            print(f"error: {name} must be an integer >= 1", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InversionError as exc:
        print(f"error: curve inversion: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
