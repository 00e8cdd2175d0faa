#!/usr/bin/env python3
"""Benchmark of the spinsqueeze package, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  Workloads (see
``workloads.py`` and ``perfbench/README.md``): closed_form, oracle_matrix,
oracle_large, algebra.

A run replays the workload's seeded op set pass after pass (at least
MIN_PASSES, then while the next pass is expected to end within
``--seconds``) and takes each op's median latency over the passes.

End-to-end times are host-corrected.  On a shared host the speed of the
whole machine drifts by up to 2x over tens of seconds, so runs of the same
code differ by more than any useful regression bound.  The benchmark
therefore times a fixed reference kernel (``reference_kernel``: pure
Python, about 3 ms) at most every REF_INTERVAL_S between ops, and reports a
time ``t`` measured during a pass whose median reference time was ``r`` as
``t * REF_NOMINAL_S / r``: the time the op would take on a host where the
kernel takes REF_NOMINAL_S.  The kernel does not touch the package, so a
change to the package moves the corrected times as it moves the raw ones.
The uncorrected values are in the report line.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median corrected time of importing ``spinsqueeze`` afresh and
  generating the workload's seeded inputs, repeated SETUP_REPS times before
  the first pass and SETUP_REPS_BETWEEN times after every pass, each
  corrected by the reference kernel run just before and just after it;
* ``ops_per_s``: ops in the op set divided by the sum of their median
  corrected latencies;
* ``op_p50_ms`` and ``op_tail_ms``: median and 90th percentile of the ops'
  median corrected latencies (the report line gives the sample count and how
  many samples lie beyond the tail);
* ``ok_frac``: share of attempted ops that neither raised nor failed a check
  (1 - failed_frac; the report line also gives failed_frac);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs half the time untraced, re-imports the package, wraps its
public functions (``spans.py``), runs one pass of the same op set traced and
prints the per-layer metrics (uncorrected times), with the tracing overhead
as the drop in uncorrected ops_per_s from the first untraced pass to the
traced one.  The folded spans
of the last traced run of each workload are written, gzipped, to
``perfbench/out/``.

A workload may also count known defects outside its measured ops
(``Workload.census``); the count is in the report line and, traced, in a
per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops
that raised or failed their gate; ``correct`` is false when any op, or any
census draw, returned a wrong number.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: all load comes from this one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
SETUP_REPS_BETWEEN = 2
MIN_PASSES = 3
TAIL_PERCENTILE = 90.0
# Host-speed correction: a time t measured while the reference kernel took
# r seconds is reported as t * REF_NOMINAL_S / r.  A pure-Python loop
# tracked the per-pass times of closed_form, oracle_matrix and oracle_large
# as well as mixes with NumPy and SciPy sparse kernels did.
REF_LOOP = 40_000
REF_NOMINAL_S = 0.003
REF_INTERVAL_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lie_algebra.basis_ms": "ms",
    "lie_algebra.basis_calls": "count",
    "lie_algebra.self_share": "fraction",
    "root_system.compute_roots_ms": "ms",
    "root_system.roots": "count",
    "root_system.self_share": "fraction",
    "classification.enumerate_ms": "ms",
    "classification.classes": "count",
    "classification.masks_per_class": "ratio",
    "classification.triple_ms": "ms",
    "classification.equivalence_ms": "ms",
    "classification.self_share": "fraction",
    "coherent_dynamics.find_limit_ms": "ms",
    "coherent_dynamics.evals_per_limit": "count",
    "coherent_dynamics.eval_us": "us",
    "coherent_dynamics.squeeze_trace_us": "us",
    "coherent_dynamics.self_share": "fraction",
    "coherent_dynamics.period_defects": "count",
    "scan_fit.zeta_scan_ms": "ms",
    "scan_fit.n_scan_ms": "ms",
    "scan_fit.fit_ms": "ms",
    "scan_fit.rows": "count",
    "scan_fit.self_share": "fraction",
    "exact_oracle.point_ms": "ms",
    "exact_oracle.coherent_ms": "ms",
    "exact_oracle.coherent_share": "fraction",
    "exact_oracle.basis_ms": "ms",
    "exact_oracle.second_quantize_ms": "ms",
    "exact_oracle.workspace_ms": "ms",
    "exact_oracle.states": "count",
    "exact_oracle.nnz": "count",
    "exact_oracle.point_bytes": "bytes",
    "exact_oracle.self_share": "fraction",
    "cli.limits_ms": "ms",
    "cli.zeta_scan_ms": "ms",
    "cli.oracle_check_ms": "ms",
    "cli.classify_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.self_share": "fraction",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_ops_per_s": "1/s",
    "trace.calls": "count",
    "trace.spans": "count",
}


def load_package():
    """Import spinsqueeze (and its CLI) afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "spinsqueeze" or m.startswith("spinsqueeze.")]:
        del sys.modules[name]
    api = importlib.import_module("spinsqueeze")
    cli = importlib.import_module("spinsqueeze.cli")
    if Path(api.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"spinsqueeze imported from {api.__file__}, not from {SRC}")
    return api, cli


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop (about 3 ms)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return time.perf_counter() - t0


def set_up(cls, seed: int, smoke: bool, reps: int):
    """Import and generate inputs ``reps`` times.

    Returns the last workload and, per repetition, (seconds, reference
    kernel seconds averaged over one run just before and one just after).
    """
    times = []
    for _ in range(reps):
        before = reference_kernel()
        t0 = time.perf_counter()
        api, cli = load_package()
        workload = cls(api, cli, seed, smoke)
        elapsed = time.perf_counter() - t0
        times.append((elapsed, 0.5 * (before + reference_kernel())))
    return workload, times


@dataclass
class Passes:
    """Latencies of every op in every pass (``None`` where the op raised) and
    the reference kernel times sampled during each pass."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    walls: list[float] = field(default_factory=list)
    latencies: list[list[float | None]] = field(default_factory=list)
    refs: list[list[float]] = field(default_factory=list)
    reasons: collections.Counter = field(default_factory=collections.Counter)
    examples: list[str] = field(default_factory=list)

    def fail(self, kind: str, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    def per_op(self, corrected: bool) -> list[float]:
        """Each op's median latency over the passes (ops that always raised left
        out), host-corrected by each pass's median reference kernel time."""
        scaled = []
        for latencies, refs in zip(self.latencies, self.refs):
            scale = REF_NOMINAL_S / statistics.median(refs) if corrected else 1.0
            scaled.append([None if t is None else t * scale for t in latencies])
        out = []
        for times in zip(*scaled):
            kept = [t for t in times if t is not None]
            if kept:
                out.append(statistics.median(kept))
        return out

    def ops_per_s(self, index: int) -> float:
        """Ops per second of one pass's raw latencies."""
        times = [t for t in self.latencies[index] if t is not None]
        return len(times) / sum(times)


def run_passes(workload, budget_s: float, passes: int | None = None, tracer=None,
               between=None) -> Passes:
    """Replay the op set: MIN_PASSES passes, then while the next one is expected
    to end within the budget; with ``passes`` given, exactly that many.
    ``between``, if given, is called after every pass, outside its wall time."""
    res = Passes()

    def execute(op) -> float | None:
        frame = tracer.begin_op(res.attempted, op.kind) if tracer else None
        res.attempted += 1
        try:
            t0 = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is counted, the run goes on
            trace = "".join(traceback.format_exception(exc, limit=-3))
            res.fail(f"{op.kind}: raised {type(exc).__name__}", f"{op.kind}: {trace}", False)
            return None
        finally:
            if tracer:
                tracer.end_op(frame)
        try:
            op.check(result)
        except workloads.CheckFailed as exc:
            res.fail(f"{op.kind}: {'wrong value' if exc.wrong else 'gate'}", exc.reason, exc.wrong)
        return elapsed

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        latencies, refs, last_ref = [], [], -math.inf
        for op in workload.op_set():
            if time.perf_counter() - last_ref >= REF_INTERVAL_S:
                refs.append(reference_kernel())
                last_ref = time.perf_counter()
            latencies.append(execute(op))
        res.latencies.append(latencies)
        res.refs.append(refs)
        now = time.perf_counter()
        res.walls.append(now - t0)
        if len(res.latencies[-1]) != len(res.latencies[0]):
            raise RuntimeError("the op set changed between passes")
        if between is not None:
            between()
            now = time.perf_counter()
        done = len(res.walls)
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and now - start + statistics.fmean(res.walls) > budget_s:
            break
    return res


def machine() -> dict:
    import scipy

    facts = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE (not in os.sysconf_names)
    for label, key in (("l2_bytes", 191), ("l3_bytes", 194)):
        try:
            facts[label] = os.sysconf(key) if sys.platform.startswith("linux") else None
        except (ValueError, OSError):
            facts[label] = None
    return facts


def summary(latencies: list[float]) -> tuple[float, float, float]:
    """(ops per second, median ms, TAIL_PERCENTILE ms) of per-op latencies."""
    return (len(latencies) / sum(latencies), 1e3 * float(np.percentile(latencies, 50)),
            1e3 * float(np.percentile(latencies, TAIL_PERCENTILE)))


def end_to_end(setup_times, res: Passes) -> tuple[dict, dict]:
    per_op = res.per_op(corrected=True)
    ops_per_s, p50_ms, tail_ms = summary(per_op)
    raw_ops_per_s, raw_p50_ms, raw_tail_ms = summary(res.per_op(corrected=False))
    values = {
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup_times),
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "ok_frac": 1.0 - res.failed / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "tail_percentile": TAIL_PERCENTILE,
        "samples": len(per_op),
        "samples_beyond_tail": sum(1 for x in per_op if 1e3 * x > tail_ms),
        "pass_walls_s": res.walls,
        "ref_ms_per_pass": [1e3 * statistics.median(r) for r in res.refs],
        "uncorrected": {"setup_s": statistics.median(t for t, _ in setup_times), "ops_per_s": raw_ops_per_s,
                        "op_p50_ms": raw_p50_ms, "op_tail_ms": raw_tail_ms},
    }
    return values, notes


def probe_cli(workload, repeats: int = 3) -> list[float]:
    """Per CLI invocation: median over repeats of CLI time minus the direct
    library call on the same inputs, the two run in alternating order."""
    out = []
    for probe in workload.probes.values():
        diffs = []
        for rep in range(repeats):
            calls = [lambda: workloads.run_cli(workload.cli, probe.argv), probe.direct]
            times = []
            for call in calls if rep % 2 == 0 else calls[::-1]:
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            cli_s, direct_s = times if rep % 2 == 0 else times[::-1]
            diffs.append(cli_s - direct_s)
        out.append(statistics.median(diffs))
    return out


def per_layer(tracer: spans.Tracer, counters: workloads.Counters, base: Passes,
              traced: Passes, overhead_s: list[float], census: dict | None) -> dict:
    t, c = tracer, counters
    selfs = t.layer_self()
    busy = sum(selfs.values()) or 1.0
    _, basis_total = t.totals("lie_algebra.multipole_basis")
    _, limit_direct = t.totals("coherent_dynamics.find_limit", kind="find_limit")
    _, limit_cli = t.totals("coherent_dynamics.find_limit", kind="cli.limits")
    _, coherent_total = t.totals("exact_oracle.coherent_state")
    _, point_total = t.totals("exact_oracle.OracleWorkspace.squeezing")
    evals = sum(c.limit_evals)
    point_bytes = [20 * nnz + 216 * states for nnz, states in zip(c.nnz, c.states)]
    values = {
        "lie_algebra.basis_ms": 1e3 * basis_total / len(c.basis_twice_j) if c.basis_twice_j else 0.0,
        "lie_algebra.basis_calls": t.totals("lie_algebra.multipole_basis")[0],
        "root_system.compute_roots_ms": t.mean_ms("root_system.compute_roots"),
        "root_system.roots": c.roots,
        "classification.enumerate_ms": t.mean_ms("classification.enumerate_classes"),
        "classification.classes": c.classes,
        "classification.masks_per_class": c.masks / c.classes if c.classes else 0.0,
        "classification.triple_ms": t.mean_ms("classification.build_su2_triple"),
        "classification.equivalence_ms": t.mean_ms("classification.equivalence_check"),
        "coherent_dynamics.find_limit_ms": t.mean_ms("coherent_dynamics.find_limit"),
        "coherent_dynamics.evals_per_limit": evals / len(c.limit_evals) if c.limit_evals else 0.0,
        "coherent_dynamics.eval_us": 1e6 * (limit_direct + limit_cli) / evals if evals else 0.0,
        "coherent_dynamics.squeeze_trace_us": 1e3 * t.mean_ms("coherent_dynamics.squeeze_trace"),
        "scan_fit.zeta_scan_ms": t.mean_ms("scan_fit.zeta_scan"),
        "scan_fit.n_scan_ms": t.mean_ms("scan_fit.n_scan"),
        "scan_fit.fit_ms": t.mean_ms("scan_fit.fit_power_law"),
        "scan_fit.rows": c.scan_rows,
        "exact_oracle.point_ms": t.mean_ms("exact_oracle.OracleWorkspace.squeezing"),
        "exact_oracle.coherent_ms": t.mean_ms("exact_oracle.coherent_state"),
        "exact_oracle.coherent_share": coherent_total / point_total if point_total else 0.0,
        "exact_oracle.basis_ms": t.mean_ms("exact_oracle.build_basis"),
        "exact_oracle.second_quantize_ms": t.mean_ms("exact_oracle.second_quantize"),
        "exact_oracle.workspace_ms": t.mean_ms("exact_oracle.OracleWorkspace.__init__"),
        "exact_oracle.states": statistics.fmean(c.states) if c.states else 0.0,
        "exact_oracle.nnz": statistics.fmean(c.nnz) if c.nnz else 0.0,
        "exact_oracle.point_bytes": statistics.fmean(point_bytes) if point_bytes else 0.0,
        "cli.limits_ms": t.mean_ms("cli.main", kind="cli.limits"),
        "cli.zeta_scan_ms": t.mean_ms("cli.main", kind="cli.zeta_scan"),
        "cli.oracle_check_ms": t.mean_ms("cli.main", kind="cli.oracle_check"),
        "cli.classify_ms": t.mean_ms("cli.main", kind="cli.classify"),
        "cli.overhead_ms": 1e3 * statistics.fmean(overhead_s) if overhead_s else 0.0,
        "coherent_dynamics.period_defects": census["mu_min_outside_period"] if census else 0,
        "trace.ops_per_s_untraced": base.ops_per_s(0),
        "trace.ops_per_s_traced": traced.ops_per_s(0),
        "trace.overhead_ops_per_s": base.ops_per_s(0) - traced.ops_per_s(0),
        "trace.calls": t.calls(),
        "trace.spans": len(t.spans),
    }
    for layer in spans.LAYERS:
        values[f"{layer}.self_share"] = selfs[layer] / busy
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "spinsqueeze" / "__init__.py").is_file():
        print(f"error: no spinsqueeze sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]
    workload, setup_times = set_up(cls, args.seed, args.smoke, SETUP_REPS)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine(),
              "setup_reps_s_ref_s": setup_times}
    census_wrong = False

    def take_census():
        nonlocal census_wrong
        try:
            report["census"] = workload.census()
        except workloads.CheckFailed as exc:
            census_wrong = True
            report["census"] = None
            report["census_failure"] = exc.reason

    if args.trace:
        base = run_passes(workload, args.seconds / 2.0)
        take_census()  # untraced, so its calls stay out of the spans
        api, cli = load_package()  # fresh module state, so both first passes start cold
        workload = cls(api, cli, args.seed, args.smoke)
        tracer = spans.Tracer()
        report["wrapped_functions"] = tracer.install()
        traced = run_passes(workload, 0.0, passes=1, tracer=tracer)
        overhead = probe_cli(workload)
        values = per_layer(tracer, workload.counters, base, traced, overhead, report["census"])
        units = PER_LAYER
        passes = (base, traced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(HERE.parent))
    else:
        res = run_passes(workload, args.seconds,
                         between=lambda: setup_times.extend(set_up(cls, args.seed, args.smoke, SETUP_REPS_BETWEEN)[1]))
        values, notes = end_to_end(setup_times, res)
        report.update(notes)
        take_census()
        units = END_TO_END
        passes = (res,)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report.update(
        passes=[len(p.walls) for p in passes],
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        failures=dict(sum((p.reasons for p in passes), collections.Counter())),
        failure_examples=[e for p in passes for e in p.examples][:5],
    )
    print("report " + json.dumps(report))
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": not census_wrong and not any(p.wrong for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
