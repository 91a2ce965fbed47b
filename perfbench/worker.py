"""One workload round in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE RUN_ID EXPECTED_JSON SPANS_OUT

Run from the root of a checkout; ``run.py`` starts it once per round.  It
imports petersburg, generates the round's inputs from the seed, runs the
workload's operations with their output checks, and prints one JSON line:
timings, operation latencies, failures, peak memory and, when MODE is
``traced``, the per-layer metrics (the spans themselves go to SPANS_OUT).
With MODE ``setup`` it stops once the inputs are generated: a set-up sample.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from collections import defaultdict

from spans import Recorder, self_times


class Round:
    """Operations of one round: latency per operation, failures, work counts."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.latencies: list = []
        self.names: list = []
        self.failures: list = []
        self.counts: dict = defaultdict(int)

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """A spanned call that is not an operation of its own (oracles, probes)."""
        with self.rec.span(name, **(attrs or {})):
            return fn(*args, **kwargs)

    def op(self, name: str, fn, *args, check=None, attrs=None, **kwargs):
        """Time one public call as one operation, then check its output.

        A call that raises and an output its check rejects both count as a
        failed operation; the round goes on either way."""
        self.names.append(name)
        t0 = time.perf_counter()
        try:
            with self.rec.span(name, **(attrs or {})) as span:
                out = fn(*args, **kwargs)
        except Exception as exc:  # the program failed this operation; record it
            self.latencies.append(time.perf_counter() - t0)
            self.failures.append({"op": name, "message": f"raised {exc!r}"[:500]})
            return None
        self.latencies.append(time.perf_counter() - t0)
        if span is not None and hasattr(out, "error") and hasattr(out, "cdf"):
            span.update(grid_points=len(out.cdf), error=float(out.error))
        if check is not None:
            try:
                with self.rec.span("check." + name):
                    check(out)
            except Exception as exc:  # Mismatch, or a check that could not run
                self.failures.append({"op": name, "message": (str(exc) or repr(exc))[:500]})
        return out


def _blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv: list) -> int:
    workload, seed, mode, run_id, expected_path, spans_path = argv
    fresh = "petersburg" not in sys.modules
    import numpy
    import scipy

    import petersburg  # noqa: F401  (pulls in scipy.integrate, part of set-up)
    import workloads

    with open(expected_path) as fh:
        exp = json.load(fh)
    inp = workloads.INPUTS[workload](random.Random(int(seed)))
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready, "fresh_interpreter": fresh, "pid": os.getpid()}))
        return 0

    rec = Recorder(run_id, mode == "traced")
    rnd = Round(rec)
    t0 = time.perf_counter()
    workloads.RUN[workload](rnd, inp, exp)
    wall = time.perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    out = {
        "ready": ready,
        "wall_s": wall,
        "latencies": list(rnd.latencies),
        "ops": list(rnd.names),
        "failures": rnd.failures,
        "peak_rss_mb": peak_mb,
        "fresh_interpreter": fresh,
        "pid": os.getpid(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas": _blas_name()},
    }
    if rec.enabled:
        from layers import layer_metrics

        # spans so far cover the timed part; what their self times leave out
        # is harness time
        covered = sum(self_times(rec.spans).values())
        if workload == "cli-cold":
            workloads.probe_cli_inproc(rnd, inp, exp)
        workloads.probe_cli_import(rnd)
        out["layers"] = layer_metrics(rec.spans, rnd.counts)
        out["layers"]["harness.unspanned_s"] = wall - covered
        rec.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
