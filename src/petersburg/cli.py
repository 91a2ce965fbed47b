"""Command-line front end.

One subcommand per family of operations, JSON for scalars and exact
rationals, CSV for curves.  Each handler returns its answer (a dict, a
(header, rows) pair or text) and main prints it.  A subcommand's grid flags
(--x, --x-lin, --x-dyadic) form one mutually exclusive group, and flags of
two modes given together are refused, so no given flag is dropped.  Output
is a pure function of the flags: every stochastic subcommand requires
--seed, and every seed reaches the draws through stpdist.seed_blocks, so a
draw depends only on (seed, replicate index).

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
    eta_jgamma,
    frac_log2,
    gamma_n,
    psi,
    quantile,
    tail,
    truncated_cdf,
    truncated_moment,
    xi_and_f,
)

# Only stpdist loads with this module.  Every handler imports the engine it
# runs (exact, asymptotics, limitlaw, montecarlo, checks), so a cold call
# pays for that engine alone, and the closed-form subcommands load neither
# numpy nor any other engine.

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


def _render(answer) -> str:
    """A handler's answer as text: strict JSON for a dict, CSV for a
    (header, rows) pair, text as it stands."""
    if isinstance(answer, dict):
        return _jdump(answer)
    if isinstance(answer, str):
        return answer
    return _csv(*answer)


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import tempfile

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
    if args.alpha == 1.0 and args.p == 0.5:
        return CLASSICAL
    return GameParams(args.alpha, args.p)


def _not_with(flag: str, other: str) -> ValueError:
    # two flags of different modes, refused in argparse's words for a
    # mutually exclusive group
    return ValueError(f"argument {flag}: not allowed with argument {other}")


# ------------------------------------------------------------------- grids

# the most points a --x-lin or --x-dyadic grid may hold, refused by name
# before the grid is allocated; the documented examples use at most 65
_GRID_POINTS_MAX = 1 << 20


def _check_grid_points(count: int, flag: str) -> None:
    if count > _GRID_POINTS_MAX:
        raise ValueError(f"{flag}: {count} points, above the {_GRID_POINTS_MAX} a grid may hold")


def _parse_dyadic(spec: str) -> list:
    from petersburg.exact import dyadic_grid

    flag = "--x-dyadic"
    try:
        m0, m1, ppo = (int(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"{flag} must look like m0:m1:points-per-octave")
    if m0 >= m1:
        raise ValueError(f"{flag}: need m0 < m1")
    if ppo < 1:
        raise ValueError(f"{flag}: need at least one point per octave")
    _check_grid_points((m1 - m0) * ppo + 1, flag)
    try:
        return dyadic_grid(m0, m1, ppo)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_lin(spec: str):
    import numpy as np

    flag = "--x-lin"
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError(f"{flag} must look like lo:hi:count")
    if not lo < hi:
        raise ValueError(f"{flag}: need lo < hi")
    if count < 2:
        raise ValueError(f"{flag}: need count >= 2")
    _check_grid_points(count, flag)
    return np.linspace(lo, hi, count)


# grid flag -> (its args attribute, the parser of its spec, its help); --x
# is points as parsed: one float, or the list an append flag collects
_GRID_FLAGS = {
    "--x-lin": ("x_lin", _parse_lin,
                "grid spec lo:hi:count (write --x-lin=-2:6:9 for a negative lo)"),
    "--x-dyadic": ("x_dyadic", _parse_dyadic, "grid spec m0:m1:points-per-octave"),
    "--x": ("x", None, None),
}


def _points(args, default=None):
    """(flag, points) of the grid flag given, else of the subcommand's
    default (flag, spec).  argparse lets a subcommand take at most one."""
    for flag, (dest, parse, _) in _GRID_FLAGS.items():
        spec = getattr(args, dest, None)
        if spec is not None:
            break
    else:
        flag, spec = default
        parse = _GRID_FLAGS[flag][1]
    return flag, spec if parse is None else parse(spec)


# ---------------------------------------------------------------- scalar ops


def _cmd_tail(args) -> dict:
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
    return out


def _cmd_quantile(args) -> dict:
    params = _params(args)
    return {"u": args.u, "alpha": params.alpha, "p": params.p, "value": quantile(args.u, params)}


def _two_pow_split(x: int):
    if x & (x - 1) == 0 and x >= 4:
        return x.bit_length() - 2, x.bit_length() - 2
    bits = [i for i in range(x.bit_length()) if x >> i & 1]
    if len(bits) == 2 and bits[0] >= 1:
        return bits[0], bits[1]
    return None


def _cmd_exact_tail(args) -> dict:
    from petersburg.exact import sum_tail_exact, two_sum_tail_closed

    dp = sum_tail_exact(args.n, args.x)
    if args.n == 2 and args.x >= 0:
        split = _two_pow_split(args.x)
        if split is not None:
            if two_sum_tail_closed(*split) != dp:
                raise RuntimeError("closed two-sum form disagrees with the exact engine")
    return dp.to_json()


def _cmd_trimmed_tail(args) -> dict:
    bound_flags = (args.normalized_x, args.delta, args.bound_c)
    if any(v is not None for v in bound_flags):
        from petersburg.asymptotics import uniform_bound_rhs

        for flag, v in zip(("--normalized-x", "--delta", "--bound-c"), bound_flags):
            if v is None:
                raise ValueError(f"{flag} is required together with the other bound flags")
        if args.oracle:
            raise _not_with("--oracle", "--normalized-x")
        value = uniform_bound_rhs(args.n, args.r, args.normalized_x, args.delta, args.bound_c)
        return {"n": args.n, "r": args.r, "x": args.normalized_x,
                "delta": args.delta, "c": args.bound_c, "bound": value}
    from petersburg.exact import enum_oracle, trimmed_tail_exact

    x = 0 if args.x is None else args.x
    dp = trimmed_tail_exact(args.n, args.r, x)
    out = dp.to_json()
    if args.oracle:
        out["oracle_agrees"] = enum_oracle(args.n, args.r, x) == dp
    return out


def _cmd_conv_ratio(args) -> tuple:
    from petersburg.exact import conv_ratio_curve

    _, xs = _points(args)
    return "x,value,error_estimate,backend", [(x, v, 0.0, "exact") for x, v in conv_ratio_curve(xs)]


def _cmd_asym_tail(args) -> dict | tuple:
    from petersburg.asymptotics import ratio_table, snr_tail_rhs

    flag, xs = _points(args)
    if flag == "--x-dyadic":
        return "x,frac_log2,exact,asymptote,ratio,backend", ratio_table(args.n, args.r, xs)
    asym = snr_tail_rhs(args.n, args.r, args.x)
    return {
        "n": args.n, "r": args.r, "x": args.x,
        "leading": asym.leading, "correction": asym.correction,
        "inner_prob": asym.inner_prob, "inner_backend": asym.inner_backend,
        "value": asym.value,
    }


def _cmd_finer_as(args) -> dict:
    from petersburg.asymptotics import finer_as_rhs

    value = finer_as_rhs(args.n, args.r, args.m, args.c)
    return {"n": args.n, "r": args.r, "m": args.m, "c": args.c, "value": value}


def _cmd_subexp_limits(args) -> dict:
    from petersburg.asymptotics import subexp_limits

    lo, hi = subexp_limits(_params(args))
    return {"alpha": args.alpha, "p": args.p, "liminf": lo, "limsup": hi}


def _cmd_gen_tail(args) -> dict:
    from petersburg.asymptotics import gen_snr_tail_rhs

    asym = gen_snr_tail_rhs(args.n, args.r, args.x, params=_params(args))
    return {"n": args.n, "r": args.r, "x": args.x, "alpha": args.alpha,
            "p": args.p, "value": asym.value, "error_estimate": asym.error}


# ------------------------------------------------------------ limit law ops


def _cmd_limit_cdf(args) -> dict | tuple:
    import numpy as np

    from petersburg.limitlaw import wgamma_cdf_curve, wjg_cdf_curve

    flag, xs = _points(args)
    xs = np.atleast_1d(xs)
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
    if flag == "--x":
        return {"j": args.j, "gamma": args.gamma, "x": args.x, "value": float(vals[0]),
                "error_estimate": curve.error, "backend": "fft"}
    return "x,value,error_estimate,backend", [(float(x), float(v), curve.error, "fft")
                                              for x, v in zip(xs, vals)]


def _cmd_gstar_cdf(args) -> dict | tuple:
    from petersburg.limitlaw import gstar_cdf, gstar_cdf_error

    flag, xs = _points(args)
    if flag == "--x":
        return {"gamma": args.gamma, "x": args.x, "value": gstar_cdf(args.gamma, args.x)}
    vals = gstar_cdf(args.gamma, xs)
    errs = gstar_cdf_error(args.gamma, xs)
    return "x,value,error_estimate,backend", [(float(x), float(v), float(e), "series")
                                              for x, v, e in zip(xs, vals, errs)]


def _cmd_sample_y(args) -> str:
    from petersburg.limitlaw import sample_Y

    ys = sample_Y(args.r, args.gamma, truncation=args.truncation,
                  reps=args.reps, seed=args.seed)
    head = (f"# sample-y r={args.r} gamma={args.gamma!r} "
            f"truncation={args.truncation} reps={args.reps} seed={args.seed}")
    body = "\n".join(repr(float(v)) for v in ys)
    return f"{head}\ny\n{body}\n"


def _cmd_y_tail(args) -> dict:
    from petersburg.limitlaw import y_tail_parts

    parts = y_tail_parts(args.r, args.gamma, args.x)
    out = {"r": args.r, "gamma": args.gamma, "x": args.x, "a_const": a_const(args.r, args.gamma)}
    out.update(parts)
    out["error_estimate"] = out.pop("error")
    return out


def _cmd_centering(args) -> dict:
    return {"n": args.n, "gamma": args.gamma, "r": args.r,
            "centering": centering(args.n, args.gamma, args.r),
            "closed": centering_closed(args.n, args.gamma) if args.r == 0 else None}


def _cmd_xi(args) -> dict:
    xi, f = xi_and_f(args.gamma)
    return {"gamma": args.gamma, "xi": xi, "f": f}


def _cmd_chernoff(args) -> dict:
    bound = chernoff_bound(args.n, args.j, args.gamma, args.x)  # validates every flag
    g = args.gamma if args.gamma is not None else gamma_n(args.n)
    cap = (args.n - 1).bit_length() + args.j
    return {
        "n": args.n, "j": args.j, "gamma": g, "eta": eta_jgamma(args.j, g),
        "x": args.x, "h": chernoff_h(args.x), "bound": bound,
        "cap": cap, "truncated_mean": truncated_moment(1, cap),
    }


# ----------------------------------------------------------- simulation ops


def _cmd_mc_sim(args) -> tuple:
    from petersburg.montecarlo import SimPlan, simulate_trimmed

    params = _params(args)
    if args.centered and args.x_dyadic is not None:
        raise _not_with("--x-dyadic", "--centered")
    _, xs = _points(args, ("--x-lin", "-2:30:65") if args.centered else ("--x-dyadic", "4:14:2"))
    plan = SimPlan(n=args.n, r=args.r, reps=args.reps, master_seed=args.seed)
    emp = simulate_trimmed(plan, params, centered=args.centered)
    return "x,value,error_estimate,backend", [(float(x), emp.tail(x), emp.ci_halfwidth(x),
                                               "montecarlo") for x in xs]


def _cmd_merge_check(args) -> dict:
    from petersburg.montecarlo import merge_check

    return merge_check(args.n, reps=args.reps, seed=args.seed)


def _cmd_trimmed_merge_check(args) -> dict:
    from petersburg.montecarlo import trimmed_merge_check

    return trimmed_merge_check(args.n, reps=args.reps, seed=args.seed)


def _cmd_max_check(args) -> tuple:
    from petersburg.montecarlo import max_pmf_check

    res = max_pmf_check(args.n, j_lo=args.j_lo, j_hi=args.j_hi,
                        reps=args.reps, seed=args.seed)
    return "j,empirical,weight,deviation,sigma", [
        (row["j"], row["empirical"], row["weight"], row["deviation"], row["sigma"])
        for row in res["rows"]]


def _cmd_chernoff_check(args) -> tuple:
    from petersburg.montecarlo import chernoff_check

    _, xs = _points(args, ("--x", (0.5, 1.0, 2.0, 4.0)))
    res = chernoff_check(args.n, args.j, xs=tuple(xs), reps=args.reps, seed=args.seed)
    return "x,empirical,bound,sigma,violation", [
        (row["x"], row["empirical"], row["bound"], row["sigma"], bool(row["violation"]))
        for row in res["rows"]]


def _cmd_fig1(args) -> tuple:
    from petersburg.montecarlo import histogram_fig1

    res = histogram_fig1(n=args.n, reps=args.reps, seed=args.seed,
                         bin_width=args.bin_width)
    edges = res["edges"]
    return "bin_lo,bin_hi,count_untrimmed,count_trimmed", [
        (float(lo), float(hi), int(cu), int(ct))
        for lo, hi, cu, ct in zip(edges[:-1], edges[1:],
                                  res["counts_untrimmed"], res["counts_trimmed"])]


def _cmd_fig2(args) -> tuple:
    from petersburg.exact import oscillation_curve_fig2

    if args.xmax < 4 or args.xmax & (args.xmax - 1) != 0:
        raise ValueError("--xmax must be a power of two, at least 4")
    m_hi = args.xmax.bit_length() - 1
    if args.m_lo >= m_hi:
        raise ValueError("--m-lo must sit below log2 of --xmax")
    return "x,value", oscillation_curve_fig2(n=args.n, m_lo=args.m_lo, m_hi=m_hi,
                                             per_octave=args.per_octave)


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


class _FailedReport(str):
    """repro-all's report when a check failed: printed as any text, then exit 1."""


def _cmd_repro_all(args) -> str:
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
    report = "\n".join(lines) + "\n"
    return _FailedReport(report) if failures else report


# ------------------------------------------------------------------ parser


def _parent(*flags) -> argparse.ArgumentParser:
    """A parent parser holding (name, spec) flags that several subcommands
    declare the same way."""
    parent = argparse.ArgumentParser(add_help=False)
    for name, spec in flags:
        parent.add_argument(name, **spec)
    return parent


def _add_grid(sp, *flags, required=True, **x_spec) -> None:
    """A subcommand's grid flags as one mutually exclusive group: --x (a
    float, with x_spec) and the spec flags _points reads."""
    group = sp.add_mutually_exclusive_group(required=required)
    for flag in flags:
        if flag == "--x":
            group.add_argument(flag, type=float, **x_spec)
        else:
            group.add_argument(flag, help=_GRID_FLAGS[flag][2])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petersburg",
        description="Exact, asymptotic, limit-law, and simulated tails of "
                    "St. Petersburg sums and trimmed sums.",
    )
    common = _parent(("--out", {"help": "write output to this file instead of stdout"}))
    game = _parent(("--alpha", {"type": float, "default": 1.0}),
                   ("--p", {"type": float, "default": 0.5}))
    n = _parent(("--n", {"type": int, "required": True}))
    r = _parent(("--r", {"type": int, "default": 0}))
    x = _parent(("--x", {"type": float, "required": True}))
    gamma = _parent(("--gamma", {"type": float, "required": True}))
    seed = _parent(("--seed", {"type": int, "required": True}))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, summary, *parents):
        sp = sub.add_parser(name, parents=[common, *parents], help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = add("tail", _cmd_tail, "tail and cdf of one payoff", x, game)
    sp.add_argument("--truncate-level", type=int, default=None)

    sp = add("quantile", _cmd_quantile, "payoff quantile", game)
    sp.add_argument("--u", type=float, required=True)

    sp = add("exact-tail", _cmd_exact_tail, "exact dyadic tail of the n-round sum", n)
    sp.add_argument("--x", type=int, required=True)

    sp = add("trimmed-tail", _cmd_trimmed_tail,
             "exact dyadic tail of the trimmed sum, or its uniform bound", n, r)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against brute enumeration (n <= 5)")
    point = sp.add_mutually_exclusive_group()
    point.add_argument("--x", type=int, default=None, help="exact threshold (default 0)")
    point.add_argument("--normalized-x", type=float, default=None,
                       help="evaluate the uniform tail bound at this normalized x")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--bound-c", type=float, default=None)

    sp = add("conv-ratio", _cmd_conv_ratio, "two-sum tail over one-payoff tail")
    _add_grid(sp, "--x", "--x-dyadic", action="append")

    sp = add("asym-tail", _cmd_asym_tail,
             "first-order trimmed-tail asymptote, or a ratio table", n, r)
    _add_grid(sp, "--x", "--x-dyadic")

    sp = add("finer-as", _cmd_finer_as, "sharpened asymptote at x = c*2^m", n, r)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--c", type=float, required=True)

    add("subexp-limits", _cmd_subexp_limits,
        "liminf and limsup of the subexponential ratio", game)

    add("gen-tail", _cmd_gen_tail, "trimmed-tail asymptote for generalized games", n, r, x, game)

    sp = add("limit-cdf", _cmd_limit_cdf,
             "semistable limit CDF from its FFT curve, at a point or on a grid", gamma)
    sp.add_argument("--j", type=int, default=None)
    _add_grid(sp, "--x", "--x-lin")

    sp = add("gstar-cdf", _cmd_gstar_cdf, "limit CDF of the max-trimmed sum", gamma)
    _add_grid(sp, "--x", "--x-lin")

    sp = add("sample-y", _cmd_sample_y, "seeded draws from the trimmed limit series",
             r, gamma, seed)
    sp.add_argument("--truncation", type=int, default=10_000)
    sp.add_argument("--reps", type=int, default=10_000)

    add("y-tail", _cmd_y_tail, "bracketed tail formula for the limit series", r, gamma, x)

    add("centering", _cmd_centering, "merging centering constants", n, gamma, r)

    add("xi", _cmd_xi, "dyadic drift constant and its companion", gamma)

    sp = add("chernoff", _cmd_chernoff, "exponential bound for the capped normalized sum", n, x)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--gamma", type=float, default=None)

    sp = add("mc-sim", _cmd_mc_sim, "empirical tail of the (trimmed) sum", n, r, seed, game)
    sp.add_argument("--reps", type=int, default=100_000)
    sp.add_argument("--centered", action="store_true",
                    help="normalize by n and subtract the merging centering")
    _add_grid(sp, "--x-dyadic", "--x-lin", required=False)

    sp = add("merge-check", _cmd_merge_check,
             "KS distance of the normalized sum to its limit", n, seed)
    sp.add_argument("--reps", type=int, default=200_000)

    sp = add("trimmed-merge-check", _cmd_trimmed_merge_check,
             "KS distance of the max-trimmed sum to its limit", n, seed)
    sp.add_argument("--reps", type=int, default=200_000)

    sp = add("max-check", _cmd_max_check, "empirical pmf of the maximum payoff level", n, seed)
    sp.add_argument("--j-lo", type=int, default=-3)
    sp.add_argument("--j-hi", type=int, default=6)
    sp.add_argument("--reps", type=int, default=1_000_000)

    sp = add("chernoff-check", _cmd_chernoff_check,
             "empirical exceedance against the exponential bound", n, seed)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--x", type=float, action="append")
    sp.add_argument("--reps", type=int, default=1_000_000)

    sp = add("fig1", _cmd_fig1, "log2 histograms of the sum and the max-trimmed sum", seed)
    sp.add_argument("--n", type=int, default=128)
    sp.add_argument("--reps", type=int, default=1_000_000)
    sp.add_argument("--bin-width", type=float, default=0.25)

    sp = add("fig2", _cmd_fig2, "oscillation curve x * P{S_n > x} on a dyadic grid")
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--xmax", type=int, default=16384)
    sp.add_argument("--m-lo", type=int, default=4)
    sp.add_argument("--per-octave", type=int, default=32)

    sp = add("repro-all", _cmd_repro_all, "run every acceptance check and write a report")
    sp.add_argument("--config", default=None,
                    help="key=value overrides of seeds and sample sizes; "
                         "a pass bound or any other key is rejected by name")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        answer = args.func(args)
        _emit(_render(answer), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InversionError as exc:
        print(f"error: curve inversion: {exc}", file=sys.stderr)
        return 3
    return 1 if isinstance(answer, _FailedReport) else 0


if __name__ == "__main__":
    sys.exit(main())
