#!/usr/bin/env python3
"""N-scaling of the squeezing limit, with power-law fits.

Generates xi2_min(N) and mu_min(N) for (a) the irreducible spin-3/2 class
(expected -2/3 scaling) and (b) the half-spin pair at the scan maximum
|zeta_1|^2 = 1 - pi/4 (expected saturation constant ~0.11 plus an N^-1/2
correction), then fits both datasets and prints the parameters.

A refused argument (say, fewer than 4 points to fit, or an --n-lo that
rounds to no particles) prints `error: <message>` to stderr and exits 1.
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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = np.round(np.geomspace(args.n_lo, args.n_hi, args.points)).astype(int)
    j32 = SpinQuantum(3)

    # irreducible class: pure power law
    dec_full = IrrepDecomposition(j32, (3,))
    rows = n_scan(dec_full, 1.0, ns)
    write_csv(outdir / "irreducible.csv", rows)
    fit = fit_power_law([(n, xi) for n, xi, _, _ in rows], model="power")
    print(f"irreducible: xi2_min ~ {fit.param('a')[0]:.4f} N^-{fit.param('p')[0]:.4f}")

    # half-spin pair at the scan maximum: saturating law
    dec_pair = IrrepDecomposition(j32, (1, 1))
    weight = 1 - math.pi / 4
    rows = n_scan(dec_pair, weight, ns)
    write_csv(outdir / "pair_at_maximum.csv", rows)
    fx = fit_power_law([(n, xi) for n, xi, _, _ in rows], model="offset-power")
    fm = fit_power_law([(n, mu) for n, _, mu, _ in rows], model="power")
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
