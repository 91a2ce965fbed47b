"""Benchmark of the petersburg package: one workload per run, every metric by name.

    python3 perfbench/run.py --workload exact-lattice --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout (it imports ``src/petersburg``).
A run is a closed loop with one client: rounds of the workload, one after
another, each in a fresh interpreter started by ``worker.py``.  The number of
rounds is round(seconds / nominal round time), so every run does the same
work and lasts about ``--seconds`` on the reference machine (2 cores).

With ``--trace 0`` the run reports the end-to-end metrics: medians across
rounds of set-up time, wall time and peak memory, and the operation latency
median and tail over all its operations.  Set-up-only workers make up the
set-up samples to at least SETUP_SAMPLES.  With ``--trace 1`` the run makes
half as many rounds, each untraced one followed by a traced one, and reports
the per-layer metrics from the traced rounds; the tracing overhead is the
traced wall time minus the untraced one.  Details (quartiles, the tail
percentile, failures, provenance) go to the line before the last and to
``.perfbench_out/``.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import NOMINAL_ROUND_S, WORKLOADS  # noqa: E402

OUT_DIR = Path(".perfbench_out")
ROUND_TIMEOUT_S = 170
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
TAIL_BEYOND = 10  # the tail percentile leaves at least this many operations above it
SETUP_SAMPLES = 5  # set-up is about 1 s: take a median of at least this many
# one BLAS thread: a single-client run whose spread does not depend on how
# the library splits small products across the machine's cores
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def op_tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND operations above it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "petersburg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit(root: Path):
    if not (root / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies the code
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return res.stdout.strip() or None


def run_round(args, index: int, mode: str, env: dict) -> dict:
    run_id = f"{args.workload}-s{args.seed}-{index}-{mode}"
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           mode, run_id, str(HERE / "expected.json"),
           str(OUT_DIR / f"spans-{run_id}.jsonl")]
    spawned = time.monotonic()
    # a session of its own, so a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"round {run_id} exited {proc.returncode}:\n{stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    out["mode"] = mode
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "petersburg" / "__init__.py").is_file():
        print("perfbench: src/petersburg not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    # a terminated run still ends the round it started (see run_round)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT_DIR.mkdir(exist_ok=True)
    # workers and their CLI children import only this checkout's src/
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD)

    n_rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    if args.trace:
        plan = ["plain", "traced"] * -(-n_rounds // 2)
    else:
        plan = ["plain"] * n_rounds
        for i in range(SETUP_SAMPLES - n_rounds):  # between the rounds, then after them
            plan.insert(2 * i + 1, "setup")
    load_before = os.getloadavg()
    started = time.monotonic()
    try:
        rounds = [run_round(args, i, mode, env) for i, mode in enumerate(plan)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started
    load_after = os.getloadavg()

    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    worked = plain + traced
    latencies = [x for r in plain for x in r["latencies"]]
    attempted = sum(len(r["latencies"]) for r in worked)
    failures = [f for r in worked for f in r["failures"]]
    tail_s, tail_pct = op_tail(latencies)
    per_round = {k: quartiles([r[k] for r in plain]) for k in ("wall_s", "peak_rss_mb")}
    per_round["setup_s"] = quartiles([r["setup_s"] for r in rounds if r["mode"] != "traced"])
    values = {
        "setup_s": per_round["setup_s"]["median"],
        "wall_s": per_round["wall_s"]["median"],
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": per_round["peak_rss_mb"]["median"],
    }

    if args.trace:
        layers = {}
        for name, unit, _better in PER_LAYER:
            if name == "harness.trace_overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            layers[name] = {"value": value, "unit": unit}
        metrics = layers
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(plain),
        "setup_samples": per_round["setup_s"]["n"],
        "elapsed_s": elapsed,
        "end_to_end": values,
        "across_rounds": per_round,
        "op_count": len(latencies),
        "op_tail_percentile": tail_pct,
        "op_tail_call": next(name for r in plain for x, name in zip(r["latencies"], r["ops"])
                             if x == tail_s),
        "failed_frac": len(failures) / max(attempted, 1),
        "failures": failures[:20],
        "fresh_interpreters": all(r["fresh_interpreter"] for r in rounds),
        "worker_pids": [r["pid"] for r in plain],
        "provenance": {
            "commit": commit(root),
            "source_sha256": source_digest(root),
            **plain[0]["versions"],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": SINGLE_THREAD["OPENBLAS_NUM_THREADS"],
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "cpu_pinning": "none: the benchmark does not pin CPUs or fix the clock frequency, "
                           "so it records the load average instead",
        },
    }
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
