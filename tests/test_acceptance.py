"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and the reported discrepancy/sensitivity details.  Criterion 4 folds the
records of `compare_with_oracle`, which holds the agreement rule and its
collapsed-mean guard; every worst must be at most 1e-9, and a NaN fails.
"""

import dataclasses
import math
import time

import numpy as np

from spinsqueeze import (
    IrrepDecomposition,
    OracleWorkspace,
    ScanConfig,
    SpinQuantum,
    VertexSubset,
    build_su2_triple,
    commutator,
    compare_with_oracle,
    compute_roots,
    default_cartan,
    enumerate_classes,
    find_limit,
    fit_power_law,
    multipole_basis,
    n_scan,
    norm_squared,
    oat_spec,
    second_quantize,
    squeeze_trace,
    zeta_scan,
)
from spinsqueeze.cli import main
from spinsqueeze.coherent_dynamics import _moments

J32 = SpinQuantum(3)
SQ3, SQ5, SQ15 = math.sqrt(3.0), math.sqrt(5.0), math.sqrt(15.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


# ----------------------------------------------------------------------
# 1. classification of the four spin-3/2 classes
# ----------------------------------------------------------------------


def test_criterion_01_classification(capsys):
    t0 = time.perf_counter()
    classes = enumerate_classes(J32)
    import io
    import json
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["classify", "--j", "3/2"])
    elapsed = time.perf_counter() - t0
    payload = json.loads(buffer.getvalue())
    got = [tuple(c["subspins"]) for c in payload["classes"]]
    want = [("3/2",), ("0", "1"), ("1/2", "1/2"), ("0", "0", "1/2")]
    f_want = [1.0, math.sqrt(2.5), math.sqrt(5.0), math.sqrt(10.0)]
    f_got = [c["f"] for c in payload["classes"]]
    ok = (
        code == 0
        and len(classes) == 4
        and got == want
        and all(abs(a - b) <= 1e-12 for a, b in zip(f_got, f_want))
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "four spin-3/2 classes with exact f", ok,
               f"f dev {max(abs(a - b) for a, b in zip(f_got, f_want)):.1e}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 2. su(4) root system
# ----------------------------------------------------------------------


def test_criterion_02_root_system(capsys):
    t0 = time.perf_counter()
    basis = multipole_basis(J32)
    roots = compute_roots(basis, default_cartan(basis))
    positive = [
        (1.0, SQ5, 2.0), (2.0, SQ5, -1.0), (3.0, 0.0, 1.0),
        (1.0, 0.0, -3.0), (2.0, -SQ5, -1.0), (1.0, -SQ5, 2.0),
    ]
    worst = 0.0
    for target in positive + [tuple(-x for x in t) for t in positive]:
        best = min(roots, key=lambda r: max(abs(a - b) for a, b in zip(r.root, target)))
        worst = max(worst, max(abs(a - b) for a, b in zip(best.root, target)))

    g = dict(zip(basis.names, basis.matrices()))
    combo = (
        SQ15 / 10.0 * (g["Jx"] + 1j * g["Jy"])
        + 0.5 * (g["Qzx"] + 1j * g["Qyz"])
        - SQ15 / 20.0 * (g["Tax"] + 1j * g["Tay"])
        - 0.25 * (g["Tbx"] - 1j * g["Tby"])
    )
    ladder = min(
        roots, key=lambda r: max(abs(a - b) for a, b in zip(r.root, (1.0, SQ5, 2.0)))
    ).ladder
    phase = np.trace(ladder.conj().T @ combo) / np.trace(ladder.conj().T @ ladder)
    ladder_dev = np.max(np.abs(combo - phase * ladder))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and abs(abs(phase) - 1.0) < 1e-9 and ladder_dev < 1e-9 and elapsed < 1.0
    with capsys.disabled():
        report(2, "su(4) roots and first-root ladder", ok,
               f"root dev {worst:.1e}, ladder dev {ladder_dev:.1e}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 3. golden generator matrices (independently re-typed literals)
# ----------------------------------------------------------------------


def _golden_reference():
    jx = 0.5 * np.array([[0, SQ3, 0, 0], [SQ3, 0, 2, 0], [0, 2, 0, SQ3], [0, 0, SQ3, 0]])
    jy = 0.5j * np.array([[0, -SQ3, 0, 0], [SQ3, 0, -2, 0], [0, 2, 0, -SQ3], [0, 0, SQ3, 0]])
    jz = 0.5 * np.diag([3, 1, -1, -3])
    qxy = 0.5j * SQ5 * np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    qyz = 0.5j * SQ5 * np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    qzx = 0.5 * SQ5 * np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    dxy = 0.5 * SQ5 * np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    y = 0.5 * SQ5 * np.diag([1, -1, -1, 1])
    tax = 0.25 * np.array([[0, -SQ3, 0, 5], [-SQ3, 0, 3, 0], [0, 3, 0, -SQ3], [5, 0, -SQ3, 0]])
    tay = 0.25j * np.array([[0, SQ3, 0, 5], [-SQ3, 0, -3, 0], [0, 3, 0, SQ3], [-5, 0, -SQ3, 0]])
    taz = 0.5 * np.diag([1, -3, 3, -1])
    tbx = 0.25 * SQ5 * np.array([[0, -1, 0, -SQ3], [-1, 0, SQ3, 0], [0, SQ3, 0, -1], [-SQ3, 0, -1, 0]])
    tby = 0.25j * SQ5 * np.array([[0, -1, 0, SQ3], [1, 0, SQ3, 0], [0, -SQ3, 0, -1], [-SQ3, 0, 1, 0]])
    tbz = 0.5 * SQ5 * np.array([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]])
    txyz = 0.5j * SQ5 * np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    return [jx, jy, jz, qxy, qyz, qzx, dxy, y, tax, tay, taz, tbx, tby, tbz, txyz]


def test_criterion_03_golden_matrices(capsys):
    basis = multipole_basis(J32)
    reference = _golden_reference()
    worst = max(
        np.max(np.abs(got - want)) for got, want in zip(basis.matrices(), reference)
    )
    ok = len(basis) == 15 and worst <= 1e-12
    with capsys.disabled():
        report(3, "fifteen golden spin-3/2 matrices", ok, f"entry dev {worst:.1e}")


# ----------------------------------------------------------------------
# 4. analytic dynamics versus the exact oracle
# ----------------------------------------------------------------------

PHASES = [1.0, np.exp(0.9j), np.exp(-2.1j), np.exp(4.4j), np.exp(1.7j)]
WEIGHTS = {
    1: [(1.0,)] * 5,
    2: [(1.0, 0.0), (0.82, 0.18), (0.64, 0.36), (0.5, 0.5), (0.3, 0.7)],
    3: [(1.0, 0.0, 0.0), (0.7, 0.2, 0.1), (0.5, 0.5, 0.0), (0.4, 0.3, 0.3), (0.6, 0.0, 0.4)],
}


def fold_comparisons(comparisons):
    """Worst perp, var_min, var_max and xi2 over `compare_with_oracle` records; NaN propagates."""
    return np.max([(c.perp_expectation, c.var_min, c.var_max, c.xi2) for c in comparisons], axis=0)


def test_criterion_04_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mu_grid = np.linspace(0.0, math.pi, 50)
    comparisons = []
    for subset in ({1, 2, 3}, {1, 2}, {1, 3}, {1}):
        triple = build_su2_triple(VertexSubset(J32, frozenset(subset)))
        dec = triple.decomposition
        zetas = [
            tuple(math.sqrt(x) * PHASES[(i + k) % 5] for k, x in enumerate(w))
            for i, w in enumerate(WEIGHTS[dec.r])
        ]
        for n in range(2, 13):
            ws = OracleWorkspace(triple, n)
            comparisons += [compare_with_oracle(ws, oat_spec(dec, n, z).coherent, mu_grid) for z in zetas]
    perp, var_min, var_max, xi2 = worst = fold_comparisons(comparisons)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(worst <= 1e-9)) and elapsed < 300.0  # NaN <= 1e-9 is False
    detail = (
        f"{sum(len(c.pairs) for c in comparisons)} points, worst perp {perp:.1e}, var_min {var_min:.1e}, "
        f"var_max {var_max:.1e}, xi2 {xi2:.1e} "
        f"({sum(c.guarded for c in comparisons)} collapsed-mean points excluded from xi2), {elapsed:.0f}s"
    )
    with capsys.disabled():
        report(4, "analytic == oracle over the full matrix", ok, detail)


def test_criterion_04_fold_propagates_nan():
    """A NaN discrepancy in one of criterion 04's groups makes that quantity's worst NaN."""
    workspace = OracleWorkspace(build_su2_triple(VertexSubset(J32, frozenset({1, 3}))), 4)
    coherent = oat_spec(workspace.triple.decomposition, 4, (0.6, 0.8)).coherent
    clean = compare_with_oracle(workspace, coherent, [0.1, 0.5])
    worst = fold_comparisons([clean, dataclasses.replace(clean, var_max=math.nan), clean])
    assert np.isnan(worst).tolist() == [False, False, True, False]


# ----------------------------------------------------------------------
# 5-7. squeezing limits against the closed-form references
# ----------------------------------------------------------------------


def test_criterion_05_type_i_limit(capsys):
    t0 = time.perf_counter()
    n = 100_000
    res = find_limit(oat_spec(IrrepDecomposition(J32, (3,)), n, (1,)))
    ref_xi = 0.5 * n ** (-2 / 3) + 1 / (3 * n)
    ref_mu = 2 / math.sqrt(3) * n ** (-2 / 3)
    elapsed = time.perf_counter() - t0
    dev_xi = abs(res.xi2_min / ref_xi - 1)
    dev_mu = abs(res.mu_min / ref_mu - 1)
    ok = res.status == "ok" and dev_xi < 0.05 and dev_mu < 0.05 and elapsed < 10.0
    with capsys.disabled():
        report(5, "irreducible-class limit at N=1e5", ok,
               f"xi2 {res.xi2_min:.3e} ({dev_xi*100:.1f}%), mu {res.mu_min:.3e} ({dev_mu*100:.1f}%), {elapsed:.1f}s")


def test_criterion_06_reference_limits_types_ii_iv(capsys):
    n = 100_000
    res2 = find_limit(oat_spec(IrrepDecomposition(J32, (2, 0)), n, (1, 0)))
    res4 = find_limit(oat_spec(IrrepDecomposition(J32, (1, 0, 0)), n, (1, 0, 0)))
    devs = (
        abs(res2.xi2_min / 0.00031 - 1),
        abs(res2.mu_min / 0.0007 - 1),
        abs(res4.xi2_min / 0.00049 - 1),
        abs(res4.mu_min / 0.0011 - 1),
    )
    ok = all(d < 0.10 for d in devs)
    with capsys.disabled():
        report(6, "reference limits for the two-block classes", ok,
               "devs " + ", ".join(f"{d*100:.1f}%" for d in devs))


def test_criterion_07_type_iii_equal_superposition(capsys):
    n = 100_000
    res = find_limit(
        oat_spec(IrrepDecomposition(J32, (1, 1)), n, (1 / math.sqrt(2), 1 / math.sqrt(2)))
    )
    ref_xi = 0.5 * (6 / n) ** (2 / 3)
    ref_mu = 2 * 3 ** (1 / 6) * (n / 2) ** (-2 / 3)
    dev_xi = abs(res.xi2_min / ref_xi - 1)
    dev_mu = abs(res.mu_min / ref_mu - 1)
    ok = dev_xi < 0.10 and dev_mu < 0.10
    with capsys.disabled():
        report(7, "equal-superposition limit for the half-spin pair", ok,
               f"xi2 dev {dev_xi*100:.1f}%, mu dev {dev_mu*100:.1f}%")


# ----------------------------------------------------------------------
# 8. weight-scan maxima
# ----------------------------------------------------------------------


def test_criterion_08_scan_maxima(capsys):
    n = 100_000
    grid = tuple(np.round(np.linspace(0.0, 1.0, 101), 10))
    rows = zeta_scan(ScanConfig(IrrepDecomposition(J32, (1, 1)), n, grid))
    vals = np.array([r.xi2_min for r in rows])
    zs = np.array([r.zeta1_sq for r in rows])
    maxima = [
        float(zs[i])
        for i in range(1, len(zs) - 1)
        if np.isfinite(vals[i]) and vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
    ]
    lo_target, hi_target = 1 - math.pi / 4, math.pi / 4
    lo_hit = min((abs(m - lo_target) for m in maxima), default=math.inf)
    hi_hit = min((abs(m - hi_target) for m in maxima), default=math.inf)
    ok = lo_hit <= 0.03 and hi_hit <= 0.03
    with capsys.disabled():
        report(8, "scan maxima at 1-pi/4 and pi/4", ok,
               f"maxima {maxima}, offsets {lo_hit:.3f}/{hi_hit:.3f}")


# ----------------------------------------------------------------------
# 9. power-law fits (with N-range sensitivity)
# ----------------------------------------------------------------------


def _fit_range(dec, weight, lo, hi):
    ns = np.round(np.geomspace(lo, hi, 12)).astype(int)
    data = n_scan(dec, weight, ns)
    fx = fit_power_law([(n, xi) for n, xi, _, _ in data], model="offset-power")
    fm = fit_power_law([(n, mu) for n, _, mu, _ in data], model="power")
    return fx, fm


def test_criterion_09_fits(capsys):
    dec = IrrepDecomposition(J32, (1, 1))
    weight = 1 - math.pi / 4
    fx, fm = _fit_range(dec, weight, 1e3, 1e6)
    c = fx.param("c")[0]
    p_mid = fx.param("p")[0]
    p_mu = fm.param("p")[0]
    ok = abs(c / 0.11 - 1) < 0.30 and abs(p_mid - 0.50) < 0.10 and abs(p_mu - 0.73) < 0.05
    sens = []
    for lo, hi in ((1e3, 1e5), (1e4, 1e6)):
        sx, sm = _fit_range(dec, weight, lo, hi)
        sens.append(f"[{lo:.0e},{hi:.0e}]: c={sx.param('c')[0]:.3f} p={sx.param('p')[0]:.3f} mu_p={sm.param('p')[0]:.3f}")
    with capsys.disabled():
        report(9, "limit and time fits at the scan maximum", ok,
               f"c={c:.4f}, p={p_mid:.3f}, mu exponent={p_mu:.3f}; sensitivity {'; '.join(sens)}")


# ----------------------------------------------------------------------
# 10. scaling exponent of the irreducible class
# ----------------------------------------------------------------------


def test_criterion_10_scaling_slope(capsys):
    dec = IrrepDecomposition(J32, (3,))
    ns = [round(10**k) for k in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    logs = []
    for n in ns:
        res = find_limit(oat_spec(dec, n, (1,)))
        logs.append((math.log(n), math.log(res.xi2_min)))
    slope = np.polyfit([a for a, _ in logs], [b for _, b in logs], 1)[0]
    ok = abs(slope + 2.0 / 3.0) <= 0.03
    with capsys.disabled():
        report(10, "xi2_min scaling slope -2/3", ok, f"slope {slope:.4f}")


# ----------------------------------------------------------------------
# 11. bundled invariants (full versions live in the module test files)
# ----------------------------------------------------------------------


def test_criterion_11_property_bundle(capsys):
    checks = []

    # Hermiticity / norm / Gram for J up to 4
    for twice_j in range(1, 9):
        basis = multipole_basis(SpinQuantum(twice_j))
        mats = basis.matrices()
        k2 = norm_squared(basis.j)
        gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
        checks.append(np.max(np.abs(gram - k2 * np.eye(len(mats)))) < 1e-10)
        checks.append(all(np.max(np.abs(m - m.conj().T)) < 1e-12 for m in mats))

    # su(2) commutation with factor f for every spin-3/2 subset
    for mask in range(1, 8):
        triple = build_su2_triple(
            VertexSubset(J32, frozenset(k + 1 for k in range(3) if mask >> k & 1))
        )
        plus = triple.o1.matrix + 1j * triple.o2.matrix
        resid = np.max(
            np.abs(triple.o3.matrix @ plus - plus @ triple.o3.matrix - triple.decomposition.f * plus)
        )
        checks.append(resid < 1e-9)

    # xi^2(0) = 1 and isotropy
    for dec, zeta in (
        (IrrepDecomposition(J32, (3,)), (1,)),
        (IrrepDecomposition(J32, (1, 1)), (0.6, 0.8)),
        (IrrepDecomposition(J32, (1, 0, 0)), (0.8, 0.6, 0)),
    ):
        spec = oat_spec(dec, 9, zeta)
        trace = squeeze_trace(spec, 0.0)
        checks.append(abs(trace.xi2 - 1.0) < 1e-10)
        checks.append(abs(trace.var_min - trace.var_max) < 1e-10)

    # minimum-uncertainty product at mu = 0 via the oracle
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2})))
    ws = OracleWorkspace(triple, 4)
    from observables import perp_observable, transverse_observable
    from spinsqueeze.coherent_dynamics import CoherentSpec
    from spinsqueeze.exact_oracle import expectation as oracle_expectation
    from spinsqueeze.exact_oracle import variance as oracle_variance

    coherent = CoherentSpec(1.0, 0.4, (0.8, 0.6))
    state = ws.coherent(coherent)
    f = triple.decomposition.f
    perp = oracle_expectation(state, second_quantize(perp_observable(triple, 1.0, 0.4), ws.basis))
    for nu in np.linspace(0, math.pi, 12, endpoint=False):
        va = oracle_variance(state, second_quantize(transverse_observable(triple, 1.0, 0.4, nu), ws.basis))
        vb = oracle_variance(
            state, second_quantize(transverse_observable(triple, 1.0, 0.4, nu + math.pi / 2), ws.basis)
        )
        checks.append(abs(va * vb - 0.25 * f * f * perp * perp) < 1e-9 * max(1.0, perp * perp))

    # homomorphism spot check
    fock = ws.basis
    gen = multipole_basis(J32).generators
    for a, b in ((0, 1), (3, 9), (5, 12)):
        lam_a = second_quantize(gen[a], fock)
        lam_b = second_quantize(gen[b], fock)
        lifted = second_quantize(commutator(gen[a], gen[b]), fock)
        resid = (lam_a @ lam_b - lam_b @ lam_a) - 1j * lifted
        checks.append(np.max(np.abs(resid.toarray())) < 1e-9)

    # analytic nu minimum lower-bounds a dense grid
    spec = oat_spec(IrrepDecomposition(J32, (2, 0)), 6, (0.8, 0.6))
    for mu in (0.4, 1.2):
        trace = squeeze_trace(spec, mu)
        _, base, p, q = _moments(spec, mu)
        nus = np.linspace(0, math.pi, 360, endpoint=False)
        grid = [base + p * (1.0 + math.cos(2 * nu)) - q * math.sin(2 * nu) for nu in nus]
        checks.append(trace.var_min <= min(grid) + 1e-10 and trace.var_max >= max(grid) - 1e-10)

    ok = all(checks)
    with capsys.disabled():
        report(11, "bundled module invariants", ok, f"{len(checks)} checks")
