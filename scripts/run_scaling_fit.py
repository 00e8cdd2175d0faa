#!/usr/bin/env python3
"""N-scaling of the squeezing limit, with power-law fits.

Generates xi2_min(N) and mu_min(N) for (a) the irreducible spin-3/2 class
(expected -2/3 scaling) and (b) the half-spin pair at the scan maximum
|zeta_1|^2 = 1 - pi/4 (expected saturation constant ~0.11 plus an N^-1/2
correction), then fits both datasets and prints the parameters.

A refused argument (say, fewer than 4 points to fit, or an --n-lo that
rounds to no particles) prints `error: <message>` to stderr and exits 1;
the CSVs are written only after both scans and all three fits succeed, so
a refused run writes none.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from spinsqueeze import (
    IrrepDecomposition,
    SpinQuantum,
    fit_power_law,
    n_scan,
)
from spinsqueeze.errors import InvalidInput


def write_csv(path: Path, rows) -> None:
    with path.open("w") as fh:
        fh.write("n,xi2_min,mu_min,status\n")
        for n, xi, mu, status in rows:
            fh.write(f"{n},{xi:.17g},{mu:.17g},{status}\n")


def scan_and_fit(args) -> None:
    """Scan both classes and fit all three laws, then write the two CSVs.

    Nothing is written until every fit has passed, so a refused run leaves
    no partial dataset behind.
    """
    ns = np.round(np.geomspace(args.n_lo, args.n_hi, args.points)).astype(int)
    j32 = SpinQuantum(3)

    # irreducible class: pure power law
    full = n_scan(IrrepDecomposition(j32, (3,)), 1.0, ns)
    fit = fit_power_law([(n, xi) for n, xi, _, _ in full], model="power")

    # half-spin pair at the scan maximum: saturating law
    pair = n_scan(IrrepDecomposition(j32, (1, 1)), 1 - math.pi / 4, ns)
    fx = fit_power_law([(n, xi) for n, xi, _, _ in pair], model="offset-power")
    fm = fit_power_law([(n, mu) for n, _, mu, _ in pair], model="power")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "irreducible.csv", full)
    write_csv(outdir / "pair_at_maximum.csv", pair)
    print(f"irreducible: xi2_min ~ {fit.param('a')[0]:.4f} N^-{fit.param('p')[0]:.4f}")
    c, a, p, b = fx.values
    print(
        f"pair @ |zeta1|^2=1-pi/4: xi2_min ~ {c:.4f} + {a:.3f} N^-{p:.3f} + {b:.2f}/N; "
        f"mu_min ~ {fm.param('a')[0]:.3f} N^-{fm.param('p')[0]:.3f}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-lo", type=float, default=1e3)
    ap.add_argument("--n-hi", type=float, default=1e6)
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--outdir", default="out_scaling")
    args = ap.parse_args(argv)
    try:
        scan_and_fit(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
