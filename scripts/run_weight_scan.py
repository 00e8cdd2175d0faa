#!/usr/bin/env python3
"""Weight-dependence of the squeezing limit for the multi-block spin-3/2 classes.

Scans the first-subspace weight |zeta_1|^2 over [0, 1] at fixed N for each
class with r >= 2 and writes one CSV per class.  The half-spin-pair class
shows its characteristic symmetric double maximum at |zeta_1|^2 = 1 - pi/4
and pi/4.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from spinsqueeze import ScanConfig, SpinQuantum, enumerate_classes, zeta_scan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--j", default="3/2")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--points", type=int, default=201)
    ap.add_argument("--outdir", default="out_weight_scan")
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    j = SpinQuantum.from_string(args.j)
    grid = tuple(np.linspace(0.0, 1.0, args.points))

    for dec in enumerate_classes(j):
        if dec.r < 2:
            continue
        tag = "-".join(s.replace("/", "o") for s in dec.subspin_strings())
        rows = zeta_scan(ScanConfig(dec, args.n, grid))
        path = outdir / f"scan_{tag}_n{args.n}.csv"
        with path.open("w") as fh:
            fh.write("zeta1_sq,xi2_min,mu_min,status\n")
            for r in rows:
                fh.write(f"{r.zeta1_sq:.17g},{r.xi2_min:.17g},{r.mu_min:.17g},{r.status}\n")
        finite = [r for r in rows if math.isfinite(r.xi2_min)]
        best = min(finite, key=lambda r: r.xi2_min)
        worst = max(finite, key=lambda r: r.xi2_min)
        print(
            f"subspins {dec.subspin_strings()} (f={dec.f:.4f}): wrote {path}; "
            f"min xi2 {best.xi2_min:.3e} @ {best.zeta1_sq:.3f}, "
            f"max xi2 {worst.xi2_min:.3e} @ {worst.zeta1_sq:.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
