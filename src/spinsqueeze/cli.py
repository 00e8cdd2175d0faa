"""Command-line interface: classification, dynamics, scans, fits, oracle checks.

All numeric output uses 17 significant digits and deterministic ordering, so
identical invocations produce byte-identical files.  JSON payloads carry
"schema": "1"; CSV payloads start with a version banner unless --no-banner
is given.  Exit codes: 0 success, 1 usage error, 2 numerical status (no
squeezing found, oracle discrepancy, fit divergence).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import __version__
from .classification import (
    IrrepDecomposition,
    VertexSubset,
    build_su2_triple,
    canonical_subset,
    class_representatives,
)
from .coherent_dynamics import (
    CoherentSpec,
    EnsembleSpec,
    css_expectation_perp,
    css_fluctuation,
    find_limit,
    oat_spec,
    squeeze_trace,
)
from .errors import FitDiverged, SpinSqueezeError
from .exact_oracle import OracleWorkspace, compare_with_oracle
from .lie_algebra import SpinQuantum, multipole_basis
from .root_system import compute_roots, default_cartan
from .scan_fit import ScanConfig, fit_power_law, zeta_scan

ORACLE_CHECK_TOL = 1e-8


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
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


def _matrix_parts(m: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    return (
        [[float(v) for v in row] for row in np.real(m)],
        [[float(v) for v in row] for row in np.imag(m)],
    )


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


def _emit_table(args, header: list[str], rows) -> None:
    """Write a row table as CSV (default) or as a JSON row list."""
    if getattr(args, "format", "csv") == "json":
        payload = {"schema": "1", "rows": [dict(zip(header, row)) for row in rows]}
        _write(_render_json(payload), args.output)
    else:
        _write(_csv_lines(header, rows, not args.no_banner), args.output)


def _parse_spin(text: str) -> SpinQuantum:
    try:
        j = SpinQuantum.from_string(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"--j: cannot parse spin {text!r}: {exc}") from exc
    if j.twice_j < 1:
        raise UsageError("--j must be at least 1/2")
    return j


def _parse_class(j: SpinQuantum, text: str) -> VertexSubset:
    """Class selector: "1,3" chooses Dynkin vertices, "1/2+1/2" subspins."""
    text = text.strip()
    if "+" in text or "/" in text:
        try:
            twice = tuple(SpinQuantum.from_string(t).twice_j for t in text.split("+"))
            dec = IrrepDecomposition(j, twice)
            return canonical_subset(dec)
        except (ValueError, SpinSqueezeError) as exc:
            raise UsageError(f"--class: bad subspin list {text!r}: {exc}") from exc
    try:
        vertices = frozenset(int(t) for t in text.split(","))
        return VertexSubset(j, vertices)
    except (ValueError, SpinSqueezeError) as exc:
        raise UsageError(f"--class: bad vertex subset {text!r}: {exc}") from exc


def _parse_zeta(text: str, r: int, strict: bool) -> tuple[complex, ...]:
    try:
        vals = tuple(complex(t.strip().replace("i", "j")) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--zeta: cannot parse {text!r}: {exc}") from exc
    if len(vals) != r:
        raise UsageError(f"--zeta: got {len(vals)} weights, class has r = {r} subspaces")
    if not all(map(cmath.isfinite, vals)):
        raise UsageError(f"--zeta: weights must be finite, got {text!r}")
    norm2 = sum(abs(v) ** 2 for v in vals)
    if norm2 == 0.0:
        raise UsageError("--zeta: all weights vanish")
    if abs(norm2 - 1.0) > 1e-9:
        if strict:
            raise UsageError(f"--zeta: sum |zeta|^2 = {norm2!r} != 1 (strict mode)")
        print(f"warning: renormalizing zeta (sum |zeta|^2 was {norm2!r})", file=sys.stderr)
        vals = tuple(v / math.sqrt(norm2) for v in vals)
    return vals


def _cmd_generators(args) -> int:
    j = _parse_spin(args.j)
    basis = multipole_basis(j)
    payload = {
        "schema": "1",
        "j": str(j),
        "generators": [],
    }
    for name, g in zip(basis.names, basis.generators):
        re, im = _matrix_parts(g.matrix)
        payload["generators"].append({"name": name, "re": re, "im": im})
    _write(_render_json(payload), args.output)
    return 0


def _cmd_roots(args) -> int:
    j = _parse_spin(args.j)
    basis = multipole_basis(j)
    roots = compute_roots(basis, default_cartan(basis))
    payload = {"schema": "1", "j": str(j), "roots": []}
    for rd in roots:
        re, im = _matrix_parts(rd.ladder)
        payload["roots"].append({"root": [float(v) for v in rd.root], "ladder_re": re, "ladder_im": im})
    _write(_render_json(payload), args.output)
    return 0


def _cmd_classify(args) -> int:
    j = _parse_spin(args.j)
    payload = {"schema": "1", "j": str(j), "classes": []}
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
                re, im = _matrix_parts(op.matrix)
                entry[f"{label}_re"] = re
                entry[f"{label}_im"] = im
        payload["classes"].append(entry)
    _write(_render_json(payload), args.output)
    return 0


def _spec_from_args(args):
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    j = _parse_spin(args.j)
    subset = _parse_class(j, args.cls)
    triple = build_su2_triple(subset)
    zeta = _parse_zeta(args.zeta, triple.decomposition.r, args.strict)
    return triple, zeta


def _cmd_coherent(args) -> int:
    if not (math.isfinite(args.theta) and math.isfinite(args.phi)):
        raise UsageError(f"--theta and --phi must be finite, got {args.theta!r}, {args.phi!r}")
    triple, zeta = _spec_from_args(args)
    spec = EnsembleSpec(args.n, triple.decomposition, CoherentSpec(args.theta, args.phi, zeta))
    perp = css_expectation_perp(spec)
    fluct = css_fluctuation(spec)
    payload = {
        "schema": "1",
        "j": str(triple.j),
        "subspins": triple.decomposition.subspin_strings(ascending=True),
        "f": triple.decomposition.f,
        "n": args.n,
        "perp_expectation": perp,
        "fluctuation": fluct,
        "uncertainty_product": fluct * fluct,
        "min_uncertainty_bound": 0.25 * triple.decomposition.f**2 * perp * perp,
        "xi2": 1.0,
    }
    _write(_render_json(payload), args.output)
    return 0


def _mu_grid(mu_min: float, mu_max: float, points: int) -> np.ndarray:
    if points < 1:
        raise UsageError(f"--mu-points must be at least 1, got {points}")
    for flag, mu in (("--mu-min", mu_min), ("--mu-max", mu_max)):
        if not (math.isfinite(mu) and mu >= 0.0):
            raise UsageError(f"{flag} must be finite and >= 0, got {mu!r}")
    return np.linspace(mu_min, mu_max, points)


def _cmd_oat_sweep(args) -> int:
    grid = _mu_grid(args.mu_min, args.mu_max, args.mu_points)
    triple, zeta = _spec_from_args(args)
    spec = oat_spec(triple.decomposition, args.n, zeta)
    rows = []
    for mu in grid:
        tr = squeeze_trace(spec, float(mu))
        rows.append(
            (tr.mu, tr.perp_expectation, tr.var_min, tr.var_max, tr.nu_min, tr.xi2)
        )
    _emit_table(args, ["mu", "perp", "var_min", "var_max", "nu_min", "xi2"], rows)
    return 0


def _cmd_limits(args) -> int:
    triple, zeta = _spec_from_args(args)
    spec = oat_spec(triple.decomposition, args.n, zeta)
    res = find_limit(spec)
    payload = {
        "schema": "1",
        "xi2_min": res.xi2_min,
        "mu_min": res.mu_min,
        "iterations": res.iterations,
        "status": res.status,
    }
    _write(_render_json(payload), args.output)
    return 0 if res.status == "ok" else 2


def _cmd_zeta_scan(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"--config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"--config: {args.config} must hold a JSON object")
    j_text = args.j or cfg.get("j")
    cls_text = args.cls or cfg.get("class")
    n = args.n if args.n is not None else cfg.get("n")
    if not j_text or not cls_text or n is None:
        raise UsageError("zeta-scan needs --j, --class and --n (flags or --config)")
    j = _parse_spin(j_text)
    subset = _parse_class(j, str(cls_text))
    dec = build_su2_triple(subset).decomposition
    if args.grid_points is None and "zeta1_sq_grid" in cfg:
        try:
            grid = tuple(float(w) for w in cfg["zeta1_sq_grid"])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"--config: zeta1_sq_grid must be a list of numbers: {exc}") from exc
    else:
        pts = 101 if args.grid_points is None else args.grid_points
        if pts < 1:
            raise UsageError(f"--grid-points must be at least 1, got {pts}")
        grid = tuple(np.linspace(0.0, 1.0, pts))
    try:
        config = ScanConfig(dec, int(n), grid)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"zeta-scan: {exc}") from exc
    rows = [(r.zeta1_sq, r.xi2_min, r.mu_min, r.status) for r in zeta_scan(config)]
    _emit_table(args, ["zeta1_sq", "xi2_min", "mu_min", "status"], rows)
    return 0


def _cmd_fit(args) -> int:
    rows = []
    with open(args.input, encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                continue
            rows.append(dict(zip(header, parts)))
    if not rows:
        raise UsageError(f"no data rows in {args.input}")
    try:
        points = [(float(r[args.x_col]), float(r[args.y_col])) for r in rows if r.get("status", "ok") == "ok"]
    except KeyError as exc:
        raise UsageError(f"column {exc} missing from {args.input}") from exc
    except ValueError as exc:
        raise UsageError(f"{args.input}: {exc}") from exc
    try:
        res = fit_power_law(points, model=args.model)
    except FitDiverged as exc:
        print(f"fit diverged: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        raise UsageError(f"{args.input}: {exc}") from exc
    payload = {
        "schema": "1",
        "model": res.model,
        "params": {
            name: {"value": val, "stderr": err}
            for name, val, err in zip(res.names, res.values, res.stderr)
        },
        "residual_norm": res.residual_norm,
        "points": len(points),
    }
    _write(_render_json(payload), args.output)
    return 0


def _cmd_oracle_check(args) -> int:
    grid = _mu_grid(0.0, args.mu_max, args.mu_points)
    triple, zeta = _spec_from_args(args)
    spec = oat_spec(triple.decomposition, args.n, zeta)
    pairs, worst = compare_with_oracle(spec, OracleWorkspace(triple, args.n), grid)
    rows = [
        (a.mu, a.perp_expectation, o.perp_expectation, a.var_min, o.var_min,
         a.var_max, o.var_max, a.xi2, o.xi2)
        for a, o in pairs
    ]
    header = ["mu", "perp_analytic", "perp_oracle", "var_min_analytic", "var_min_oracle",
              "var_max_analytic", "var_max_oracle", "xi2_analytic", "xi2_oracle"]
    _emit_table(args, header, rows)
    print(f"max discrepancy: {worst:.3e}", file=sys.stderr)
    return 0 if worst <= ORACLE_CHECK_TOL else 2  # NaN <= tol is False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Classify collective spin/multipole squeezing and compute twisting dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"spinsqueeze {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=False, with_zeta=False):
        p.add_argument("--j", help='spin as "p/q", e.g. 3/2')
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        p.add_argument("--no-banner", action="store_true", help="omit the CSV version banner")
        if with_class:
            p.add_argument("--class", dest="cls", required=True,
                           help='vertex subset "1,3" or subspins "1/2+1/2"')
            p.add_argument("--n", type=int, required=True, help="particle count N")
        if with_zeta:
            p.add_argument("--zeta", required=True, help="comma list of complex weights")
            p.add_argument("--strict", action="store_true",
                           help="reject unnormalized zeta instead of renormalizing")

    p = sub.add_parser("generators", help="emit the generator basis as JSON")
    common(p)
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("roots", help="emit the root system as JSON")
    common(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("classify", help="enumerate unitary equivalence classes")
    common(p)
    p.add_argument("--emit-matrices", action="store_true", help="include the triple matrices")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("coherent", help="coherent-state expectations for one class")
    common(p, with_class=True, with_zeta=True)
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=_cmd_coherent)

    p = sub.add_parser("oat-sweep", help="twisting dynamics over a mu grid (CSV)")
    common(p, with_class=True, with_zeta=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--mu-min", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--mu-points", type=int, default=101)
    p.set_defaults(func=_cmd_oat_sweep)

    p = sub.add_parser("limits", help="squeezing limit over mu (JSON)")
    common(p, with_class=True, with_zeta=True)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("zeta-scan", help="squeezing limit along the weight grid (CSV)")
    common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--class", dest="cls", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=None, help="points on [0, 1] (default 101)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=_cmd_zeta_scan)

    p = sub.add_parser("fit", help="power-law fit of a scan CSV (JSON out)")
    common(p)
    p.add_argument("--input", required=True, help="CSV with a header row")
    p.add_argument("--model", choices=["power", "offset-power"], default="power")
    p.add_argument("--x-col", default="n")
    p.add_argument("--y-col", default="xi2_min")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle-check", help="analytic vs exact-simulation comparison (CSV)")
    common(p, with_class=True, with_zeta=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--mu-points", type=int, default=50)
    p.add_argument("--mu-max", type=float, default=math.pi)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap to the documented code 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpinSqueezeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
