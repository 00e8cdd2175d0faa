#!/usr/bin/env python3
"""Exhaustive small-N audit of the closed-form dynamics against brute force.

Sweeps every spin-3/2 class over particle numbers, weight settings, and a mu
grid, comparing the analytic mean spin, extremal transverse variances, and
squeezing parameter with the exact symmetric-subspace simulation.  Prints the
worst discrepancy `compare_with_oracle` reports; anything above 1e-9 is a red flag.

Exit codes: 0 when every discrepancy is at most 1e-9, 1 when an argument is
refused (with `error: <message>` on stderr), 2 when a discrepancy exceeds
1e-9 or is NaN.
"""

import argparse
import math
import sys

import numpy as np

from spinsqueeze import (
    OracleWorkspace,
    SpinQuantum,
    VertexSubset,
    build_su2_triple,
    compare_with_oracle,
    oat_spec,
)
from spinsqueeze.errors import InvalidInput

WEIGHTS = {
    1: [(1.0,)],
    2: [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5)],
    3: [(1.0, 0.0, 0.0), (0.6, 0.3, 0.1), (0.5, 0.0, 0.5)],
}


def audit(n_max: int, mu_points: int) -> float:
    """Print the worst discrepancy of each class and return the overall worst (NaN propagates)."""
    if n_max < 2:
        raise InvalidInput(f"--n-max must be >= 2 (the audit starts at N = 2), got {n_max}")
    if mu_points < 0:
        raise InvalidInput(f"--mu-points must be >= 0, got {mu_points}")
    j32 = SpinQuantum(3)
    mu_grid = np.linspace(0.0, math.pi, mu_points)
    overall = 0.0
    for subset in ({1, 2, 3}, {1, 2}, {1, 3}, {1}):
        triple = build_su2_triple(VertexSubset(j32, frozenset(subset)))
        dec = triple.decomposition
        worst = 0.0
        for n in range(2, n_max + 1):
            ws = OracleWorkspace(triple, n)
            for w in WEIGHTS[dec.r]:
                spec = oat_spec(dec, n, tuple(math.sqrt(x) for x in w))
                spec_worst = compare_with_oracle(ws, spec.coherent, mu_grid).worst
                worst = float(np.max([worst, spec_worst]))  # NaN propagates
        print(f"subspins {dec.subspin_strings()}: worst discrepancy {worst:.3e}")
        overall = float(np.max([overall, worst]))
    return overall


def main(argv=None) -> int:
    """Exit 0 on a pass, 1 on a refused argument, 2 on a discrepancy above 1e-9 or NaN."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--mu-points", type=int, default=40)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed audit here
        return 0 if exc.code in (0, None) else 1
    try:
        overall = audit(args.n_max, args.mu_points)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"overall: {overall:.3e}")
    return 0 if overall <= 1e-9 else 2


if __name__ == "__main__":
    raise SystemExit(main())
