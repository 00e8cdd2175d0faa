"""Command-line interface: classification, dynamics, scans, fits, oracle checks.

All numeric output uses 17 significant digits and deterministic ordering, so
identical invocations produce byte-identical files.  Every JSON payload goes
through one writer, which stamps schema version 1; the table subcommands
write CSV that starts with a version banner unless --no-banner is given, or
JSON rows under --format json.

The library holds every input check and every formula; this module only
parses text and prints the library's records.  The ensemble and scan
subcommands (`coherent`, `oat-sweep`, `limits`, `zeta-scan`, `n-scan`) work
on the class decomposition alone: only `classify --emit-matrices` and
`oracle-check` build the su(2) matrix triple.  Exit
codes: 0 success; 1 refused input (an argparse error, InvalidInput from the
library or from parsing, an unreadable file); 2 numerical status (no
squeezing found, oracle discrepancy, any other library error such as a fit
divergence or an oversized basis).

The argument parser is built once per process, on the first `main` call
rather than at import, and reused by every later call; parsing leaves it
unchanged.  `main` runs a command through the module function
`_cmd_<command>` (with "-" read as "_"), looked up when it is called.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .classification import (
    IrrepDecomposition,
    VertexSubset,
    build_su2_triple,
    canonical_subset,
    class_representatives,
    decompose_subset,
)
from .coherent_dynamics import (
    WEIGHT_NORM_TOL,
    EnsembleSpec,
    css_expectation_perp,
    css_fluctuation,
    find_limit,
    oat_spec,
    squeeze_trace,
)
from .errors import InvalidInput, SpinSqueezeError
from .exact_oracle import OracleWorkspace, compare_with_oracle
from .lie_algebra import SpinQuantum, multipole_basis
from .root_system import compute_roots, default_cartan
from .scan_fit import ScanConfig, fit_power_law, n_scan, zeta_scan

ORACLE_CHECK_TOL = 1e-8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_json_float(v) if isinstance(v, float) else str(v) for v in seq) + "]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def _matrix_parts(m: np.ndarray, prefix: str = "") -> dict[str, list[list[float]]]:
    """The real and imaginary parts as nested float lists, keyed prefix + "re" / "im"."""
    return {
        f"{prefix}re": [[float(v) for v in row] for row in np.real(m)],
        f"{prefix}im": [[float(v) for v in row] for row in np.imag(m)],
    }


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _csv_lines(header: list[str], rows, banner: bool) -> str:
    lines = []
    if banner:
        lines.append(f"# spinsqueeze {__version__}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit_json(args, **fields) -> int:
    """Write one JSON payload, stamped with the schema version; exit code 0."""
    _write(_render_json({"schema": "1", **fields}), args.output)
    return 0


def _emit_table(args, header: list[str], rows) -> int:
    """Write a row table as CSV (default) or as a JSON row list; exit code 0."""
    if args.format == "json":
        return _emit_json(args, rows=[dict(zip(header, row)) for row in rows])
    _write(_csv_lines(header, rows, not args.no_banner), args.output)
    return 0


def _parse_class(j: SpinQuantum, text: str) -> VertexSubset:
    """Class selector: "1,3" chooses Dynkin vertices, "1/2+1/2" subspins."""
    text = text.strip()
    try:
        if "+" in text or "/" in text:
            twice = tuple(SpinQuantum.from_string(t).twice_j for t in text.split("+"))
            return canonical_subset(IrrepDecomposition(j, twice))
        return VertexSubset(j, frozenset(int(t) for t in text.split(",")))
    except ValueError as exc:  # InvalidInput from the library, or an unparsable vertex
        raise InvalidInput(f"--class: bad class {text!r}: {exc}") from exc


def _weights_in_range(zeta: tuple[complex, ...]) -> tuple[tuple[complex, ...], float, float]:
    """(zeta / s, s, sum |zeta / s|^2) with s = 1, unless squaring would leave the float range.

    When the weights are finite and their squares overflow, or their sum
    falls below the smallest normal float (where squaring has already lost
    digits), s is their largest real or imaginary part, so the sum is taken
    in range; every other input keeps s = 1 and the plain sum, bit for bit.
    """
    try:
        norm2 = sum(abs(v) ** 2 for v in zeta)
    except OverflowError:  # float ** raises where * would give inf
        norm2 = math.inf
    if (norm2 < sys.float_info.min or norm2 == math.inf) and all(map(cmath.isfinite, zeta)):
        scale = max(max(abs(v.real), abs(v.imag)) for v in zeta)
        if scale > 0.0:
            zeta = tuple(v / scale for v in zeta)
            return zeta, scale, sum(abs(v) ** 2 for v in zeta)
    return zeta, 1.0, norm2


def _spec_from_args(args) -> tuple[VertexSubset, EnsembleSpec]:
    """Class subset and twisting spec; the library refuses N, the weight count and infinities.

    A trailing i (or I) marks an imaginary part.  Finite weights off unit norm
    are rescaled, or refused under --strict; weights too large or too small
    to square are divided by their largest part first.  The warning is kept in
    args.warning and printed only if the command succeeds.
    """
    subset = _parse_class(SpinQuantum.from_string(args.j), args.cls)
    try:
        zeta = tuple(complex(re.sub("[iI]$", "j", t.strip())) for t in args.zeta.split(","))
    except ValueError as exc:
        raise InvalidInput(f"--zeta: cannot parse {args.zeta!r}: {exc}") from exc
    zeta, scale, norm2 = _weights_in_range(zeta)
    if norm2 == 0.0:
        raise InvalidInput("--zeta: all weights vanish")
    rescale = scale != 1.0 or (math.isfinite(norm2) and abs(norm2 - 1.0) > WEIGHT_NORM_TOL)
    was = repr(norm2) if scale == 1.0 else f"{norm2!r} x ({scale!r})^2"
    if rescale and args.strict:
        raise InvalidInput(f"--zeta: sum |zeta|^2 = {was} != 1 (strict mode)")
    if rescale:
        zeta = tuple(v / math.sqrt(norm2) for v in zeta)
        args.warning = f"warning: renormalizing zeta (sum |zeta|^2 was {was})"
    return subset, oat_spec(decompose_subset(subset), args.n, zeta)


def _cmd_generators(args) -> int:
    j = SpinQuantum.from_string(args.j)
    basis = multipole_basis(j)
    generators = [{"name": name, **_matrix_parts(g.matrix)} for name, g in zip(basis.names, basis.generators)]
    return _emit_json(args, j=str(j), generators=generators)


def _cmd_roots(args) -> int:
    j = SpinQuantum.from_string(args.j)
    basis = multipole_basis(j)
    roots = [
        {"root": [float(v) for v in rd.root], **_matrix_parts(rd.ladder, "ladder_")}
        for rd in compute_roots(basis, default_cartan(basis))
    ]
    return _emit_json(args, j=str(j), roots=roots)


def _cmd_classify(args) -> int:
    j = SpinQuantum.from_string(args.j)
    classes = []
    for dec, subset in class_representatives(j):
        entry = {
            "subspins": dec.subspin_strings(ascending=True),
            "r": dec.r,
            "f": dec.f,
            "example_subset": sorted(subset.chosen),
        }
        if args.emit_matrices:
            triple = build_su2_triple(subset)
            for label, op in (("o1", triple.o1), ("o2", triple.o2), ("o3", triple.o3)):
                entry.update(_matrix_parts(op.matrix, f"{label}_"))
        classes.append(entry)
    return _emit_json(args, j=str(j), classes=classes)


def _cmd_coherent(args) -> int:
    _, spec = _spec_from_args(args)
    dec = spec.decomposition
    perp = css_expectation_perp(spec)
    fluct = css_fluctuation(spec)
    return _emit_json(
        args,
        j=str(dec.j),
        subspins=dec.subspin_strings(ascending=True),
        f=dec.f,
        n=spec.n,
        perp_expectation=perp,
        fluctuation=fluct,
        uncertainty_product=fluct * fluct,
        min_uncertainty_bound=0.25 * dec.f**2 * perp * perp,
        # `_xi2`'s collapsed-mean rule; elsewhere the coherent value, exactly 1
        xi2=math.inf if perp <= spec.mean_guard else 1.0,
    )


def _mu_grid(mu_min: float, mu_max: float, points: int) -> np.ndarray:
    """The mu grid between finite ends a float can span; the library refuses its negative points."""
    if points < 1:
        raise InvalidInput(f"--mu-points must be at least 1, got {points}")
    for flag, end in (("--mu-min", mu_min), ("--mu-max", mu_max)):
        if not math.isfinite(end):
            raise InvalidInput(f"{flag} must be finite, got {end!r}")
    if not math.isfinite(mu_max - mu_min):
        raise InvalidInput(f"--mu-min {mu_min!r} and --mu-max {mu_max!r} are too far apart to grid")
    return np.linspace(mu_min, mu_max, points)


def _cmd_oat_sweep(args) -> int:
    grid = _mu_grid(args.mu_min, args.mu_max, args.mu_points)
    _, spec = _spec_from_args(args)
    rows = [dataclasses.astuple(squeeze_trace(spec, float(mu))) for mu in grid]
    return _emit_table(args, ["mu", "perp", "var_min", "var_max", "nu_min", "xi2"], rows)


def _cmd_limits(args) -> int:
    _, spec = _spec_from_args(args)
    res = find_limit(spec)
    _emit_json(args, xi2_min=res.xi2_min, mu_min=res.mu_min, iterations=res.iterations, status=res.status)
    return 0 if res.status == "ok" else 2


def _cmd_zeta_scan(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInput(f"--config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise InvalidInput(f"--config: {args.config} must hold a JSON object")
    j_text = args.j or cfg.get("j")
    cls_text = args.cls or cfg.get("class")
    n = args.n if args.n is not None else cfg.get("n")
    if not j_text or not cls_text or n is None:
        raise InvalidInput("zeta-scan needs --j, --class and --n (flags or --config)")
    dec = decompose_subset(_parse_class(SpinQuantum.from_string(str(j_text)), str(cls_text)))
    if args.grid_points is None and "zeta1_sq_grid" in cfg:
        grid = cfg["zeta1_sq_grid"]
    else:
        pts = 101 if args.grid_points is None else args.grid_points
        if pts < 1:
            raise InvalidInput(f"--grid-points must be at least 1, got {pts}")
        grid = tuple(np.linspace(0.0, 1.0, pts))
    rows = [dataclasses.astuple(r) for r in zeta_scan(ScanConfig(dec, n, grid))]
    return _emit_table(args, ["zeta1_sq", "xi2_min", "mu_min", "status"], rows)


def _n_grid(n_lo: float, n_hi: float, points: int) -> list[int]:
    """Log-spaced N between positive finite ends, rounded to exact ints; the library refuses N < 1."""
    if points < 1:
        raise InvalidInput(f"--points must be at least 1, got {points}")
    for flag, end in (("--n-lo", n_lo), ("--n-hi", n_hi)):
        if not (math.isfinite(end) and end > 0.0):
            raise InvalidInput(f"{flag} must be positive and finite, got {end!r}")
    return [int(n) for n in np.round(np.geomspace(n_lo, n_hi, points))]


def _cmd_n_scan(args) -> int:
    ns = _n_grid(args.n_lo, args.n_hi, args.points)
    dec = decompose_subset(_parse_class(SpinQuantum.from_string(args.j), args.cls))
    return _emit_table(args, ["n", "xi2_min", "mu_min", "status"], n_scan(dec, args.zeta1_sq, ns))


def _cmd_fit(args) -> int:
    header, rows = None, []
    with open(args.input, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
            elif len(parts) != len(header):
                raise InvalidInput(
                    f"{args.input}: row {len(rows) + 1} has {len(parts)} cells, header has {len(header)}"
                )
            else:
                rows.append(dict(zip(header, parts)))
    if not rows:
        raise InvalidInput(f"no data rows in {args.input}")
    try:
        points = [(float(r[args.x_col]), float(r[args.y_col])) for r in rows if r.get("status", "ok") == "ok"]
    except KeyError as exc:
        raise InvalidInput(f"column {exc} missing from {args.input}") from exc
    except ValueError as exc:
        raise InvalidInput(f"{args.input}: {exc}") from exc
    res = fit_power_law(points, model=args.model)
    params = {name: {"value": v, "stderr": e} for name, v, e in zip(res.names, res.values, res.stderr)}
    return _emit_json(
        args, model=res.model, params=params, residual_norm=res.residual_norm, points=len(points)
    )


def _cmd_oracle_check(args) -> int:
    grid = _mu_grid(0.0, args.mu_max, args.mu_points)
    subset, spec = _spec_from_args(args)
    comparison = compare_with_oracle(OracleWorkspace(build_su2_triple(subset), spec.n), spec.coherent, grid)
    rows = [
        (a.mu, a.perp_expectation, o.perp_expectation, a.var_min, o.var_min,
         a.var_max, o.var_max, a.xi2, o.xi2)
        for a, o in comparison.pairs
    ]
    header = ["mu", "perp_analytic", "perp_oracle", "var_min_analytic", "var_min_oracle",
              "var_max_analytic", "var_max_oracle", "xi2_analytic", "xi2_oracle"]
    _emit_table(args, header, rows)
    print(f"max discrepancy: {comparison.worst:.3e}", file=sys.stderr)
    return 0 if comparison.worst <= ORACLE_CHECK_TOL else 2  # NaN <= tol is False


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and the same object after it."""
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Classify collective spin/multipole squeezing and compute twisting dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"spinsqueeze {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, spin=True, ensemble=False, table=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        if spin:
            p.add_argument("--j", required=True, help='spin as "p/q", e.g. 3/2')
        if ensemble:
            p.add_argument("--class", dest="cls", required=True,
                           help='vertex subset "1,3" or subspins "1/2+1/2"')
            p.add_argument("--n", type=int, required=True, help="particle count N")
            p.add_argument("--zeta", required=True, help="comma list of complex weights")
            p.add_argument("--strict", action="store_true",
                           help="reject unnormalized zeta instead of renormalizing")
        if table:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
            p.add_argument("--no-banner", action="store_true", help="omit the CSV version banner")
        return p

    add("generators", "emit the generator basis as JSON")
    add("roots", "emit the root system as JSON")
    p = add("classify", "enumerate unitary equivalence classes")
    p.add_argument("--emit-matrices", action="store_true", help="include the triple matrices")
    add("coherent", "coherent-state expectations for one class", ensemble=True)

    p = add("oat-sweep", "twisting dynamics over a mu grid (CSV)",
            ensemble=True, table=True)
    p.add_argument("--mu-min", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--mu-points", type=int, default=101)

    add("limits", "squeezing limit over mu (JSON)", ensemble=True)

    p = add("zeta-scan", "squeezing limit along the weight grid (CSV)",
            spin=False, table=True)
    p.add_argument("--j", help='spin as "p/q", e.g. 3/2')
    p.add_argument("--class", dest="cls", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=None, help="points on [0, 1] (default 101)")
    p.add_argument("--config", default=None, help="JSON config file")

    p = add("n-scan", "squeezing limit along a log-spaced N range (CSV)", table=True)
    p.add_argument("--class", dest="cls", required=True, help='vertex subset "1,3" or subspins "1/2+1/2"')
    p.add_argument("--zeta1-sq", type=float, required=True,
                   help="weight |zeta_1|^2 on the first subspace, the rest on the second")
    p.add_argument("--n-lo", type=float, default=1e3)
    p.add_argument("--n-hi", type=float, default=1e6)
    p.add_argument("--points", type=int, default=12)

    p = add("fit", "power-law fit of a scan CSV (JSON out)", spin=False)
    p.add_argument("--input", required=True, help="CSV with a header row")
    p.add_argument("--model", choices=["power", "offset-power"], default="power")
    p.add_argument("--x-col", default="n")
    p.add_argument("--y-col", default="xi2_min")

    p = add("oracle-check", "analytic vs exact-simulation comparison (CSV)",
            ensemble=True, table=True)
    p.add_argument("--mu-points", type=int, default=50)
    p.add_argument("--mu-max", type=float, default=math.pi)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap to the documented code 1
        return 0 if exc.code in (0, None) else 1
    try:
        code = globals()[f"_cmd_{args.command.replace('-', '_')}"](args)
    except (InvalidInput, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except SpinSqueezeError as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if hasattr(args, "warning"):
        print(args.warning, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
