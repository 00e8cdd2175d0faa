"""The four seeded workloads of the spinsqueeze benchmark.

A workload builds its inputs from the seed when it is constructed (that is
the timed set-up), then hands out the *op set* of one measured pass: its
``extras`` followed by ``rounds_per_pass`` seeded rounds.  The op set is the
same for every pass of a run (the draws depend only on the seed and the
round index) but is built afresh each time, so no state, such as a cached
oracle workspace, carries over from one pass to the next.  The benchmark
replays it pass after pass and takes each op's median latency.

Every op is checked.  A check raises ``CheckFailed``: with ``wrong=True``
when the program returned a wrong number, with ``wrong=False`` when the
numbers are right but the op misses its gate.  The one known gate miss, the
limit search reporting a minimum outside the first period at small N, is
kept out of the measured ops and counted by ``ClosedForm.census``.

Only names in ``spinsqueeze.__all__`` and ``spinsqueeze.cli.main`` are used,
always looked up on the package at call time so that traced wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
ORACLE_TOL = 1e-9          # |analytic - oracle| for perp, var_min, var_max, xi2
XI2_MEAN_GUARD = 1e-4      # xi2 compared only where the mean keeps this share of its start
R1_LIMIT_REL = 0.05        # r = 1, N >= 1e3: xi2_min within 5% of asymptotic_limit_r1
SCAN_MAX_TOL = 0.03        # {1/2,1/2} scan maxima within 0.03 of 1 - pi/4 and pi/4


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's gate."""

    def __init__(self, reason: str, wrong: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.wrong = wrong


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliProbe:
    """One CLI invocation paired with the direct library call on the same inputs."""

    argv: list[str]
    direct: Callable[[], object]


@dataclass
class Counters:
    """Work counts recorded by the ops themselves (exact, not timed)."""

    limit_evals: list[int] = field(default_factory=list)
    scan_rows: int = 0
    basis_twice_j: set[int] = field(default_factory=set)
    roots: int = 0
    classes: int = 0
    masks: int = 0
    states: list[int] = field(default_factory=list)
    nnz: list[int] = field(default_factory=list)


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``spinsqueeze.cli.main`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def partition_count(n: int) -> int:
    """p(n), the number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def spin_text(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def class_text(dec) -> str:
    return "+".join(spin_text(t) for t in dec.twice_subspins)


def zeta_text(zeta) -> str:
    return ",".join(repr(complex(z)).strip("()") for z in zeta)


def fold_period(mu: float) -> float:
    """Image of mu in [0, 2 pi]: xi2(mu) has period 4 pi and mirrors about 2 pi."""
    m = math.fmod(mu, 2.0 * TWO_PI)
    return 2.0 * TWO_PI - m if m > TWO_PI else m


def check_period(mu: float, where: str) -> None:
    if not 0.0 < mu <= TWO_PI:
        raise CheckFailed(f"{where}: mu_min = {mu!r} outside (0, 2pi]", wrong=False)


def compare_traces(analytic, oracle, mean0: float, where: str) -> None:
    """Criterion-04 gate between a closed-form and an oracle SqueezeTrace."""
    for label in ("perp_expectation", "var_min", "var_max"):
        diff = abs(getattr(analytic, label) - getattr(oracle, label))
        if not diff <= ORACLE_TOL:
            raise CheckFailed(f"{where}: |{label} analytic - oracle| = {diff:.3e}")
    if (
        abs(analytic.perp_expectation) >= XI2_MEAN_GUARD * mean0
        and math.isfinite(analytic.xi2)
        and math.isfinite(oracle.xi2)
    ):
        diff = abs(analytic.xi2 - oracle.xi2) / max(1.0, abs(oracle.xi2))
        if not diff <= ORACLE_TOL:
            raise CheckFailed(f"{where}: xi2 analytic - oracle = {diff:.3e}")


def scan_maxima(zeta1_sq, xi2) -> list[float]:
    """Interior local maxima of xi2_min along the weight grid (criterion 08)."""
    return [
        float(zeta1_sq[i])
        for i in range(1, len(zeta1_sq) - 1)
        if math.isfinite(xi2[i]) and xi2[i] >= xi2[i - 1] and xi2[i] >= xi2[i + 1]
    ]


def random_zeta(rng, r: int, phases: bool) -> tuple[complex, ...]:
    weights = rng.dirichlet(np.ones(r))
    amps = np.sqrt(weights)
    if phases:
        amps = amps * np.exp(1j * rng.uniform(0.0, TWO_PI, r))
    return tuple(complex(a) for a in amps)


class Workload:
    name = ""
    rounds_per_pass = 1

    def __init__(self, api, cli, seed: int):
        self.api, self.cli, self.seed = api, cli, seed
        self.counters = Counters()
        self.probes: dict[tuple[str, ...], CliProbe] = {}

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def op_set(self) -> list[Op]:
        """The ops of one measured pass, built afresh from the seed."""
        ops = list(self.extras())
        for index in range(self.rounds_per_pass):
            ops.extend(self.round(index))
        return ops

    def extras(self) -> list[Op]:
        return []

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def census(self) -> dict | None:
        """Known defects counted outside the measured ops; None when the workload has none."""
        return None

    def cli_op(self, kind: str, argv: list[str], check, direct) -> Op:
        self.probes[tuple(argv)] = CliProbe(argv, direct)
        return Op(kind, lambda: run_cli(self.cli, argv), check)


# ----------------------------------------------------------------------
# closed_form: coherent_dynamics and scan_fit, no oracle
# ----------------------------------------------------------------------


class ClosedForm(Workload):
    """find_limit over every J = 3/2 and 2J = 5 class, plus scans, a fit and CLI calls.

    One round holds one request per (class, log-N stratum): N log-uniform
    inside each of six strata covering [N_MIN, 1e6], Dirichlet weights; a
    pass is eight rounds.

    Below N_MIN the limit search can report mu_min > 2 pi (its first sweep
    reaches 200 (J_1 N)^(-2/3), past 2 pi when J_1 N < 180).  Those requests
    are not measured ops; ``census`` counts them on seeded draws
    with N in [2, N_MIN) after the measured passes.
    """

    name = "closed_form"
    N_MIN = 400
    CENSUS_DRAWS = 200

    def __init__(self, api, cli, seed, smoke):
        super().__init__(api, cli, seed)
        self.classes = api.enumerate_classes(api.SpinQuantum(3)) + api.enumerate_classes(api.SpinQuantum(5))
        if smoke:
            self.classes = self.classes[:4]
        self.rounds_per_pass = 1 if smoke else 8
        self.census_draws = 10 if smoke else self.CENSUS_DRAWS
        strata = 2 if smoke else 6
        self.edges = np.linspace(math.log(self.N_MIN), math.log(1e6), strata + 1)
        self.scan_dec = api.IrrepDecomposition(api.SpinQuantum(3), (1, 1))
        scan_points = 11 if smoke else 101
        self.scan_grid = tuple(np.round(np.linspace(0.0, 1.0, scan_points), 10))
        self.n_values = tuple(int(n) for n in np.round(np.geomspace(1e3, 1e6, 6 if smoke else 12)))
        rng = self.rng(1_000_000)
        self.cli_limits = []
        for _ in range(1 if smoke else 3):
            dec = self.classes[rng.integers(len(self.classes))]
            n = int(round(math.exp(rng.uniform(math.log(1e2), math.log(1e5)))))
            self.cli_limits.append((dec, n, random_zeta(rng, dec.r, phases=False)))
        self.cli_scan_n = int(rng.integers(10_000, 100_001))

    def _check_limit(self, spec, res) -> None:
        api = self.api
        if res.status == "no_squeezing":
            if not res.xi2_min >= 1.0:
                raise CheckFailed(f"no_squeezing with xi2_min = {res.xi2_min!r}")
            return
        if res.status != "ok":
            raise CheckFailed(f"unknown status {res.status!r}")
        if not 0.0 < res.xi2_min < 1.0:
            raise CheckFailed(f"status ok with xi2_min = {res.xi2_min!r}")
        # the value must be right even where the location is not
        at = api.squeeze_trace(spec, fold_period(res.mu_min)).xi2
        if not abs(at - res.xi2_min) <= 1e-8 * res.xi2_min:
            raise CheckFailed(f"xi2 at folded mu_min {at!r} != xi2_min {res.xi2_min!r}")
        dec = spec.decomposition
        if dec.r == 1 and spec.n >= 1000:
            ref = api.asymptotic_limit_r1(dec.twice_subspins[0], spec.n).xi2
            if not abs(res.xi2_min / ref - 1.0) <= R1_LIMIT_REL:
                raise CheckFailed(f"r=1 N={spec.n}: xi2_min {res.xi2_min!r} vs asymptotic {ref!r}")
        check_period(res.mu_min, f"find_limit {dec.twice_subspins} N={spec.n}")

    def _limit_op(self, dec, n, zeta) -> Op:
        api = self.api
        spec = api.oat_spec(dec, n, zeta)

        def check(res):
            self.counters.limit_evals.append(res.iterations)
            self._check_limit(spec, res)

        return Op("find_limit", lambda: api.find_limit(spec), check)

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for dec in self.classes:
            for lo, hi in zip(self.edges[:-1], self.edges[1:]):
                n = int(round(math.exp(rng.uniform(lo, hi))))
                ops.append(self._limit_op(dec, n, random_zeta(rng, dec.r, phases=False)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def census(self):
        """find_limit on seeded draws with N log-uniform in [2, N_MIN) over every class.

        Counts the requests whose mu_min lies outside (0, 2 pi]; any other
        gate miss, or a wrong xi2 value, raises CheckFailed.
        """
        api = self.api
        rng = self.rng(2_000_000)
        defects = 0
        for _ in range(self.census_draws):
            dec = self.classes[rng.integers(len(self.classes))]
            n = int(round(math.exp(rng.uniform(math.log(2.0), math.log(self.N_MIN)))))
            spec = api.oat_spec(dec, n, random_zeta(rng, dec.r, phases=False))
            res = api.find_limit(spec)
            try:
                self._check_limit(spec, res)
            except CheckFailed as exc:
                if exc.wrong:
                    raise
                defects += 1
        return {"draws": self.census_draws, "n_range": [2, self.N_MIN], "mu_min_outside_period": defects}

    def extras(self):
        api = self.api
        scan_config = api.ScanConfig(self.scan_dec, 100_000, self.scan_grid)

        def check_scan(rows):
            self.counters.scan_rows += len(rows)
            maxima = scan_maxima([r.zeta1_sq for r in rows], [r.xi2_min for r in rows])
            for target in (1.0 - math.pi / 4.0, math.pi / 4.0):
                if not min((abs(m - target) for m in maxima), default=math.inf) <= SCAN_MAX_TOL:
                    raise CheckFailed(f"zeta_scan maxima {maxima} miss {target:.4f}")
            for row in rows:
                if row.status == "ok":
                    check_period(row.mu_min, "zeta_scan")

        def n_scan_fit():
            rows = api.n_scan(self.scan_dec, 1.0 - math.pi / 4.0, self.n_values)
            fit = api.fit_power_law([(n, xi) for n, xi, _, _ in rows], model="offset-power")
            return rows, fit

        def check_fit(result):
            rows, fit = result
            self.counters.scan_rows += len(rows)
            if any(status != "ok" for *_, status in rows):
                raise CheckFailed(f"n_scan statuses {[s for *_, s in rows]}")
            for _, _, mu, _ in rows:
                check_period(mu, "n_scan")
            if not all(math.isfinite(v) for v in fit.values) or fit.param("p")[0] <= 0.0:
                raise CheckFailed(f"offset-power fit {fit.values}")

        ops = [
            Op("zeta_scan", lambda: api.zeta_scan(scan_config), check_scan),
            Op("n_scan_fit", n_scan_fit, check_fit),
        ]
        for dec, n, zeta in self.cli_limits:
            ops.append(self._cli_limits(dec, n, zeta))
        ops.append(self._cli_zeta_scan())
        return ops

    def _cli_limits(self, dec, n, zeta) -> Op:
        api = self.api
        argv = ["limits", "--j", spin_text(dec.j.twice_j), "--class", class_text(dec),
                "--n", str(n), f"--zeta={zeta_text(zeta)}"]
        spec = api.oat_spec(dec, n, zeta)

        def check(result):
            code, out, err = result
            payload = json.loads(out)
            res = api.LimitResult(payload["xi2_min"], payload["mu_min"], payload["iterations"], payload["status"])
            if code != (0 if res.status == "ok" else 2):
                raise CheckFailed(f"limits exit {code} for status {res.status}: {err.strip()}")
            self._check_limit(spec, res)

        def direct():
            triple = api.build_su2_triple(api.canonical_subset(dec))
            return api.find_limit(api.oat_spec(triple.decomposition, n, zeta))

        return self.cli_op("cli.limits", argv, check, direct)

    def _cli_zeta_scan(self) -> Op:
        api = self.api
        points = len(self.scan_grid) // 5 + 1
        n = self.cli_scan_n
        argv = ["zeta-scan", "--j", "3/2", "--class", "1/2+1/2", "--n", str(n),
                "--grid-points", str(points), "--format", "json"]

        def check(result):
            code, out, err = result
            if code != 0:
                raise CheckFailed(f"zeta-scan exit {code}: {err.strip()}")
            rows = json.loads(out)["rows"]
            self.counters.scan_rows += len(rows)
            if len(rows) != points:
                raise CheckFailed(f"zeta-scan printed {len(rows)} rows, expected {points}")
            for row in rows:
                if row["status"] == "ok":
                    if not 0.0 < row["xi2_min"] < 1.0:
                        raise CheckFailed(f"zeta-scan row {row}")
                    check_period(row["mu_min"], "cli zeta-scan")

        def direct():
            dec = api.build_su2_triple(api.canonical_subset(self.scan_dec)).decomposition
            return api.zeta_scan(api.ScanConfig(dec, n, tuple(np.linspace(0.0, 1.0, points))))

        return self.cli_op("cli.zeta_scan", argv, check, direct)


# ----------------------------------------------------------------------
# oracle_matrix: the criterion-04 matrix, point by point
# ----------------------------------------------------------------------

# Weight settings of the criterion-04 matrix, per number of subspaces r.
MATRIX_WEIGHTS = {
    1: [(1.0,)] * 5,
    2: [(1.0, 0.0), (0.82, 0.18), (0.64, 0.36), (0.5, 0.5), (0.3, 0.7)],
    3: [(1.0, 0.0, 0.0), (0.7, 0.2, 0.1), (0.5, 0.5, 0.0), (0.4, 0.3, 0.3), (0.6, 0.0, 0.4)],
}
MATRIX_SUBSETS = ({1, 2, 3}, {1, 2}, {1, 3}, {1})


def record_workspace(counters: Counters, ws) -> None:
    """Basis size and the nonzeros of every sparse operator the workspace holds."""
    counters.states.append(ws.basis.size)
    nnz = 0
    for value in vars(ws).values():
        action = getattr(value, "action", value)
        if hasattr(action, "nnz") and hasattr(action, "tocsr"):
            nnz += int(action.nnz)
    counters.nnz.append(nnz)


class OracleMatrix(Workload):
    """The criterion-04 matrix: 4 J = 3/2 classes x N = 2..12 x 5 weight settings x 50 mu in [0, pi].

    One op is one analytic-vs-oracle point.  A pass visits all 44 (class, N)
    groups, each at 5 weight settings with seeded phases x 12 of the 50 mu
    values, drawn per group: 2640 points.  Groups and the points inside
    each group come in seeded order, and each group's OracleWorkspace is
    built by its first point, as criterion 04 builds it once per group.
    Every pass holds the same groups, so its cost does not depend on the seed.
    """

    name = "oracle_matrix"
    MUS_PER_GROUP = 12

    def __init__(self, api, cli, seed, smoke):
        super().__init__(api, cli, seed)
        j = api.SpinQuantum(3)
        subsets = MATRIX_SUBSETS[:2] if smoke else MATRIX_SUBSETS
        self.triples = [api.build_su2_triple(api.VertexSubset(j, frozenset(s))) for s in subsets]
        self.n_values = range(2, 5) if smoke else range(2, 13)
        self.settings = 2 if smoke else 5
        self.mus = np.linspace(0.0, math.pi, 5 if smoke else 50)
        self.mus_per_group = 2 if smoke else self.MUS_PER_GROUP

    def round(self, index):
        rng = self.rng(index)
        groups = []
        for triple in self.triples:
            for n in self.n_values:
                zetas = [
                    tuple(math.sqrt(x) * complex(np.exp(1j * rng.uniform(0.0, TWO_PI))) for x in w)
                    for w in MATRIX_WEIGHTS[triple.decomposition.r][: self.settings]
                ]
                mus = rng.choice(self.mus, self.mus_per_group, replace=False)
                groups.append((triple, n, zetas, mus))
        ops = []
        for g in rng.permutation(len(groups)):
            triple, n, zetas, mus = groups[g]
            holder = {}
            points = [(zeta, float(mu)) for zeta in zetas for mu in mus]
            for p in rng.permutation(len(points)):
                ops.append(self._point_op(triple, n, holder, *points[p]))
        return ops

    def _point_op(self, triple, n, holder, zeta, mu) -> Op:
        api = self.api
        spec = api.oat_spec(triple.decomposition, n, zeta)

        def call():
            ws = holder.get("ws")
            if ws is None:
                ws = holder["ws"] = api.OracleWorkspace(triple, n)
                record_workspace(self.counters, ws)
            return api.squeeze_trace(spec, mu), ws.squeezing(spec.coherent, mu)

        def check(result):
            mean0 = abs(api.css_expectation_perp(spec))
            compare_traces(*result, mean0, f"{triple.decomposition.twice_subspins} N={n} mu={mu:.4f}")

        return Op("oracle_point", call, check)


# ----------------------------------------------------------------------
# oracle_large: one workspace build per op, at 3e3 - 9.1e3 states
# ----------------------------------------------------------------------


class OracleLarge(Workload):
    """(class, N) validation jobs: build an OracleWorkspace, evaluate 2 zeta x 4 mu.

    A pass holds the seven jobs of JOBS: the four J = 3/2 classes at N = 30
    to 36, two 2J = 5 classes at N = 10 and 11 and one 2J = 7 class at N = 8,
    so bases of 3e3 - 9.1e3 states, plus one ``oracle-check`` through the
    CLI.  The (class, N) pairs are fixed, so that every seed asks for the
    same work (a job's cost varies with its class, and the op set is only
    eight ops); the weights, the phases, the mu values and the order are
    seeded.
    """

    name = "oracle_large"
    # (2J, twice_subspins of the class, N)
    JOBS = (
        (3, (1, 0, 0), 30), (3, (1, 1), 32), (3, (2, 0), 34), (3, (3,), 36),
        (5, (3, 1), 10), (5, (2, 1, 0), 11), (7, (4, 2), 8),
    )
    SMOKE_JOBS = ((3, (1, 0, 0), 6), (3, (1, 1), 8), (5, (3, 1), 3))
    CLI_CLASS, CLI_N, CLI_N_SMOKE = (1, 1), 30, 5

    def __init__(self, api, cli, seed, smoke):
        super().__init__(api, cli, seed)

        def triple(twice_j, twice_subspins):
            for dec in api.enumerate_classes(api.SpinQuantum(twice_j)):
                if dec.twice_subspins == twice_subspins:
                    return api.build_su2_triple(api.canonical_subset(dec))
            raise ValueError(f"2J={twice_j} has no class {twice_subspins}")

        self.jobs = [(triple(tj, sub), n) for tj, sub, n in (self.SMOKE_JOBS if smoke else self.JOBS)]
        dec = triple(3, self.CLI_CLASS).decomposition
        rng = self.rng(1_000_000)
        self.cli_check = (dec, self.CLI_N_SMOKE if smoke else self.CLI_N, random_zeta(rng, dec.r, phases=True))

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for triple, n in self.jobs:
            zetas = [random_zeta(rng, triple.decomposition.r, phases=True) for _ in range(2)]
            mus = [float(m) for m in rng.uniform(0.0, math.pi, 4)]
            ops.append(self._job_op(triple, n, zetas, mus))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _job_op(self, triple, n, zetas, mus) -> Op:
        api = self.api
        specs = [api.oat_spec(triple.decomposition, n, z) for z in zetas]

        def call():
            ws = api.OracleWorkspace(triple, n)
            record_workspace(self.counters, ws)
            return [
                (spec, mu, api.squeeze_trace(spec, mu), ws.squeezing(spec.coherent, mu))
                for spec in specs
                for mu in mus
            ]

        def check(points):
            for spec, mu, analytic, oracle in points:
                mean0 = abs(api.css_expectation_perp(spec))
                where = f"{triple.decomposition.twice_subspins} N={n} mu={mu:.4f}"
                compare_traces(analytic, oracle, mean0, where)

        return Op("oracle_job", call, check)

    def extras(self):
        api = self.api
        dec, n, zeta = self.cli_check
        points = 8
        argv = ["oracle-check", "--j", "3/2", "--class", class_text(dec), "--n", str(n),
                f"--zeta={zeta_text(zeta)}", "--mu-points", str(points), "--format", "json"]

        def check(result):
            code, out, err = result
            if code != 0:
                raise CheckFailed(f"oracle-check exit {code}: {err.strip()}")
            rows = json.loads(out)["rows"]
            if len(rows) != points:
                raise CheckFailed(f"oracle-check printed {len(rows)} rows, expected {points}")
            mean0 = abs(rows[0]["perp_analytic"])
            for row in rows:
                a = api.SqueezeTrace(row["mu"], row["perp_analytic"], row["var_min_analytic"],
                                     row["var_max_analytic"], 0.0, row["xi2_analytic"])
                o = api.SqueezeTrace(row["mu"], row["perp_oracle"], row["var_min_oracle"],
                                     row["var_max_oracle"], 0.0, row["xi2_oracle"])
                compare_traces(a, o, mean0, f"cli oracle-check mu={row['mu']:.4f}")

        def direct():
            triple = api.build_su2_triple(api.canonical_subset(dec))
            spec = api.oat_spec(triple.decomposition, n, zeta)
            ws = api.OracleWorkspace(triple, n)
            return [
                (api.squeeze_trace(spec, float(mu)), ws.squeezing(spec.coherent, float(mu)))
                for mu in np.linspace(0.0, math.pi, points)
            ]

        return [self.cli_op("cli.oracle_check", argv, check, direct)]


# ----------------------------------------------------------------------
# algebra: lie_algebra, root_system and classification as functions of 2J
# ----------------------------------------------------------------------


class Algebra(Workload):
    """One op is one 2J request; a pass requests every 2J in 2..14 once, in seeded order.

    2J <= 9 runs multipole_basis and compute_roots; every request runs
    enumerate_classes, then build_su2_triple and equivalence_check per class.
    The range stops at 14 so that a pass takes about two seconds: 2J = 15
    and 16 (1.7 s together) would leave five or six passes in a 30 s run, and
    the medians spread more between runs.
    """

    name = "algebra"
    ROOTS_MAX = 9

    def __init__(self, api, cli, seed, smoke):
        super().__init__(api, cli, seed)
        self.twice_js = list(range(2, 7 if smoke else 15))
        lo, hi = (4, 7) if smoke else (8, 11)
        self.classify_twice_j = int(self.rng(1_000_000).integers(lo, hi))

    def round(self, index):
        rng = self.rng(index)
        return [self._request_op(self.twice_js[i]) for i in rng.permutation(len(self.twice_js))]

    def _request_op(self, twice_j: int) -> Op:
        api = self.api
        j = api.SpinQuantum(twice_j)

        def call():
            roots = None
            if twice_j <= self.ROOTS_MAX:
                basis = api.multipole_basis(j)
                roots = api.compute_roots(basis, api.default_cartan(basis))
            classes = api.enumerate_classes(j)
            same = []
            for dec in classes:
                triple = api.build_su2_triple(api.canonical_subset(dec))
                same.append(api.equivalence_check(triple, triple))
            return roots, classes, same

        def check(result):
            roots, classes, same = result
            want = partition_count(twice_j + 1) - 1
            self.counters.classes += len(classes)
            self.counters.masks += (1 << twice_j) - 1
            if len(classes) != want:
                raise CheckFailed(f"2J={twice_j}: {len(classes)} classes, expected p(2J+1)-1 = {want}")
            if not all(same):
                raise CheckFailed(f"2J={twice_j}: a triple failed equivalence_check against itself")
            if roots is not None:
                self.counters.basis_twice_j.add(twice_j)
                self.counters.roots += len(roots)
                if len(roots) != twice_j * (twice_j + 1):
                    raise CheckFailed(f"2J={twice_j}: {len(roots)} roots, expected 2J(2J+1)")

        return Op("request", call, check)

    def extras(self):
        api = self.api
        twice_j = self.classify_twice_j
        argv = ["classify", "--j", spin_text(twice_j)]
        want = partition_count(twice_j + 1) - 1

        def check(result):
            code, out, err = result
            if code != 0:
                raise CheckFailed(f"classify exit {code}: {err.strip()}")
            got = len(json.loads(out)["classes"])
            if got != want:
                raise CheckFailed(f"classify 2J={twice_j}: {got} classes, expected {want}")

        def direct():
            return [(dec.subspin_strings(ascending=True), dec.f)
                    for dec, _ in api.class_representatives(api.SpinQuantum(twice_j))]

        return [self.cli_op("cli.classify", argv, check, direct)]


WORKLOADS = {w.name: w for w in (ClosedForm, OracleMatrix, OracleLarge, Algebra)}
