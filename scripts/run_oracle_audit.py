#!/usr/bin/env python3
"""Exhaustive small-N audit of the closed-form dynamics against brute force.

Sweeps every spin-3/2 class over particle numbers, weight settings, and a mu
grid, comparing the analytic mean spin, extremal transverse variances, and
squeezing parameter with the exact symmetric-subspace simulation.  Prints the
worst absolute discrepancies; anything above 1e-9 is a red flag.
"""

import argparse
import math

import numpy as np

from spinsqueeze import (
    OracleWorkspace,
    SpinQuantum,
    VertexSubset,
    build_su2_triple,
    compare_with_oracle,
    oat_spec,
)

WEIGHTS = {
    1: [(1.0,)],
    2: [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5)],
    3: [(1.0, 0.0, 0.0), (0.6, 0.3, 0.1), (0.5, 0.0, 0.5)],
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--mu-points", type=int, default=40)
    args = ap.parse_args(argv)
    if args.n_max < 2:
        ap.error(f"--n-max must be >= 2 (the audit starts at N = 2), got {args.n_max}")

    j32 = SpinQuantum(3)
    mu_grid = np.linspace(0.0, math.pi, args.mu_points)
    overall = 0.0
    for subset in ({1, 2, 3}, {1, 2}, {1, 3}, {1}):
        triple = build_su2_triple(VertexSubset(j32, frozenset(subset)))
        dec = triple.decomposition
        worst = 0.0
        for n in range(2, args.n_max + 1):
            ws = OracleWorkspace(triple, n)
            for w in WEIGHTS[dec.r]:
                spec = oat_spec(dec, n, tuple(math.sqrt(x) for x in w))
                _, spec_worst = compare_with_oracle(spec, ws, mu_grid)
                worst = float(np.max([worst, spec_worst]))  # NaN propagates
        print(f"subspins {dec.subspin_strings()}: worst discrepancy {worst:.3e}")
        overall = float(np.max([overall, worst]))
    print(f"overall: {overall:.3e}")
    return 0 if overall <= 1e-9 else 2


if __name__ == "__main__":
    raise SystemExit(main())
