"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py      (from the root of a checkout, about a minute)

Writes ``perfbench/expected.json``: digests of every exact answer in the
input pools, the asymptote values, two reference limit curves, and the
stdout of every CLI argv in the pools.  Record it once from the reference
commit; a later commit whose outputs differ fails the checks, which is the
point.  Re-record only when an output change is intended and declared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as w  # noqa: E402
from petersburg.asymptotics import snr_tail_rhs  # noqa: E402
from petersburg.exact import sum_tail_exact, trimmed_tail_exact  # noqa: E402
from petersburg.limitlaw import gstar_cdf, wgamma_cdf_curve  # noqa: E402


def main() -> int:
    sum_tail = {f"{n},{x}": w.dyadic_digest(sum_tail_exact(n, x)) for n, x in w.LIMINF}
    for n in w.SWEEP_N:
        for x in w.SWEEP_POOL:
            sum_tail[f"{n},{x}"] = w.dyadic_digest(sum_tail_exact(n, x))
    trimmed = {f"{n},{r},{x}": w.dyadic_digest(trimmed_tail_exact(n, r, x))
               for (n, r), lo in w.TRIM_BANDS.items() for x in w.band_pool(lo)}
    snr = {}
    for (n, r), lo in w.SNR_BANDS.items():
        for x in w.band_pool(lo):
            a = snr_tail_rhs(n, r, x)
            snr[f"{n},{r},{x}"] = [a.value, a.inner_prob]
    mc = {
        "wgamma1_cdf": wgamma_cdf_curve(1.0).eval(w.WGAMMA1_XS).tolist(),
        "gstar1": gstar_cdf(1.0, w.GSTAR_GRID)[:: w.GSTAR_STRIDE].tolist(),
    }
    cli = {" ".join(argv): w.cli_inproc(argv)
           for argvs in w.cli_pool().values() for argv in argvs}
    out = {"sum_tail": sum_tail, "trimmed": trimmed, "snr": snr, "mc": mc, "cli": cli}
    (HERE / "expected.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
