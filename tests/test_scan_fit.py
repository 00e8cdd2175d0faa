import math
import warnings

import numpy as np
import pytest

from spinsqueeze import (
    IrrepDecomposition,
    ScanConfig,
    SpinQuantum,
    coherent_dynamics,
    enumerate_classes,
    find_limit,
    fit_power_law,
    n_scan,
    oat_spec,
    scan_fit,
    zeta_scan,
)
from spinsqueeze.errors import FitDiverged, InvalidInput, NonFiniteInput, VanishingMeanSpin

J32 = SpinQuantum(3)
DEC_II = IrrepDecomposition(J32, (2, 0))
DEC_III = IrrepDecomposition(J32, (1, 1))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(IrrepDecomposition(J32, (3,)), 10, (0.0, 1.0))  # r = 1
    with pytest.raises(ValueError):
        ScanConfig(DEC_III, 10, (0.5, 0.5))  # not strictly increasing
    with pytest.raises(ValueError):
        ScanConfig(DEC_III, 10, (0.2, 1.4))  # outside [0, 1]


@pytest.mark.parametrize("n", [0, -3])
def test_scan_config_refuses_a_count_below_one(n):
    """ScanConfig refuses it at construction, after a bad class; n_scan before its first point."""
    with pytest.raises(InvalidInput, match=f"^particle count must be >= 1, got {n}$"):
        ScanConfig(DEC_III, n, (0.5,))
    with pytest.raises(InvalidInput, match=f"^particle count must be >= 1, got {n}$"):
        n_scan(DEC_III, 0.5, [n])
    with pytest.raises(InvalidInput, match="at least two subspaces"):
        ScanConfig(IrrepDecomposition(J32, (3,)), n, (0.5,))


@pytest.mark.parametrize("grid", [("x",), (0.5, None), 0.5, "01", b"01"])  # text is not the grid (0, 1)
def test_scan_config_rejects_non_numeric_grid(grid):
    with pytest.raises(InvalidInput, match="sequence of numbers"):
        ScanConfig(DEC_III, 100, grid)


def test_scan_config_reads_each_grid_entry_as_a_real_number():
    """A numeric string is refused in the grid, as n_scan refuses it as the weight."""
    with pytest.raises(InvalidInput, match="zeta1_sq must be a real number, got '0.5'"):
        ScanConfig(DEC_III, 10, ("0.5", "0.7"))
    with pytest.raises(InvalidInput, match="zeta1_sq must be a real number, got '0.5'"):
        n_scan(DEC_III, "0.5", [10])
    assert ScanConfig(DEC_III, 10, (np.float64(0.25), 1)).zeta1_sq_grid == (0.25, 1.0)


def test_n_scan_refuses_a_count_where_the_counts_belong():
    with pytest.raises(InvalidInput, match="^n_values must be a sequence, got 10$"):
        n_scan(DEC_III, 0.5, 10)


def test_scan_config_rejects_empty_grid():
    with pytest.raises(ValueError):
        ScanConfig(DEC_III, 100, ())


def test_n_scan_rejects_empty_n_values():
    with pytest.raises(ValueError):
        n_scan(DEC_III, 0.5, [])


def test_zeta_scan_rows_ordered_and_deterministic():
    config = ScanConfig(DEC_III, 2000, tuple(np.linspace(0.1, 0.9, 9)))
    rows_a = zeta_scan(config)
    rows_b = zeta_scan(config)
    assert [r.zeta1_sq for r in rows_a] == sorted(r.zeta1_sq for r in rows_a)
    assert rows_a == rows_b
    assert all(r.status == "ok" for r in rows_a)


def test_zeta_scan_symmetry_for_equal_subspins():
    """Swapping the two J=1/2 weights relabels identical blocks."""
    grid = tuple(np.round(np.linspace(0.1, 0.9, 9), 12))
    rows = zeta_scan(ScanConfig(DEC_III, 5000, grid))
    vals = [r.xi2_min for r in rows]
    for a, b in zip(vals, vals[::-1]):
        assert a == pytest.approx(b, abs=1e-9)


def test_zeta_scan_undefined_weight_row():
    """Weight entirely on the trivial subspace has no squeezing parameter."""
    rows = zeta_scan(ScanConfig(DEC_II, 100, (0.0, 0.5, 1.0)))
    assert rows[0].status == "undefined"
    assert math.isnan(rows[0].xi2_min)
    assert rows[1].status == "ok"
    assert rows[2].status == "ok"


def test_zeta_scan_type_ii_full_weight_value():
    rows = zeta_scan(ScanConfig(DEC_II, 100_000, (1.0,) + ()))  # needs >= 1 grid pt
    # strictly increasing with one point is fine
    assert rows[0].status == "ok"
    assert abs(rows[0].xi2_min / 0.00031 - 1) < 0.1


def _per_row_limit(dec, n, zeta1_sq):
    """(status, xi2_min) of a per-row `find_limit` on the scan's weights, "undefined" where it refuses."""
    zeta = (math.sqrt(zeta1_sq), math.sqrt(max(0.0, 1.0 - zeta1_sq))) + (0.0,) * (dec.r - 2)
    try:
        res = find_limit(oat_spec(dec, n, zeta))
    except VanishingMeanSpin:
        return "undefined", math.nan
    return res.status, res.xi2_min


def test_scan_rows_match_per_row_searches():
    """Each scan row has the status and the xi^2 of a `find_limit` call on the row's weights.

    Classes with r >= 2 (2J <= 9), N log-uniform in [2, 1e9], weight grids
    of 5 to 101 points, and n_scan lists in increasing, decreasing and
    repeated order.  A row is that call, so the two agree exactly.
    """
    classes = [d for tj in range(1, 10) for d in enumerate_classes(SpinQuantum(tj)) if d.r >= 2]
    rng = np.random.default_rng(24)
    log_n = (math.log(2), math.log(1e9))
    rows = 0
    for draw in range(90):
        dec = classes[rng.integers(len(classes))]
        if draw % 2 == 0:
            n = round(math.exp(rng.uniform(*log_n)))
            grid = tuple(np.linspace(0.0, 1.0, int(rng.integers(5, 102))))
            got = [(n, w, r.status, r.xi2_min) for w, r in zip(grid, zeta_scan(ScanConfig(dec, n, grid)))]
        else:
            w = float(rng.uniform(0.0, 1.0))
            ns = sorted(round(math.exp(x)) for x in rng.uniform(*log_n, int(rng.integers(3, 15))))
            ns = [ns, ns[::-1], [m for m in ns for _ in range(2)]][draw // 2 % 3]
            got = [(m, w, status, xi2) for m, xi2, _, status in n_scan(dec, w, ns)]
        for n, w, status, xi2 in got:
            rows += 1
            want_status, want = _per_row_limit(dec, n, w)
            assert status == want_status, (dec, n, w, status, want_status)
            if status != "undefined":
                assert xi2 == want, (dec, n, w, xi2, want)
    assert rows > 2000


def test_scans_make_their_measured_kernel_evaluations(monkeypatch):
    """A scan costs one law-seeded `find_limit` per row: held at the counts measured when rows stopped seeding each other.

    A 101-point (1, 1) weight scan at N = 1e5 makes 1005 xi^2 evaluations
    (975 when each row was seeded by the last, 2049 for per-row searches
    before every search started from the one-block law); a 12-row n_scan
    from 1e3 to 1e6 at |zeta_1|^2 = 1 - pi/4 makes 124 (121 seeded, 250).
    """
    calls = []
    moments = coherent_dynamics._moments

    def counted(spec, mu):
        calls.append(mu)
        return moments(spec, mu)

    monkeypatch.setattr(coherent_dynamics, "_moments", counted)
    rows = zeta_scan(ScanConfig(DEC_III, 10**5, tuple(np.linspace(0.0, 1.0, 101))))
    assert [r.status for r in rows] == ["ok"] * 101
    assert len(calls) <= 1005, len(calls)

    calls.clear()
    ns = [int(n) for n in np.round(np.geomspace(1e3, 1e6, 12))]
    rows = n_scan(DEC_III, 1 - math.pi / 4, ns)
    assert [r[3] for r in rows] == ["ok"] * 12
    assert len(calls) <= 124, len(calls)


def test_fit_recovers_pure_power_exactly():
    ns = np.geomspace(10, 1e6, 12)
    pts = [(n, 2.0 * n ** (-2.0 / 3.0)) for n in ns]
    res = fit_power_law(pts, model="power")
    a, p = res.values
    assert a == pytest.approx(2.0, rel=1e-6)
    assert p == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert res.residual_norm < 1e-9
    assert all(s >= 0 or math.isnan(s) for s in res.stderr)


def test_fit_recovers_offset_power_exactly():
    ns = np.geomspace(100, 1e6, 14)
    pts = [(n, 0.11 + 0.57 * n ** (-0.5) + 3.8 / n) for n in ns]
    res = fit_power_law(pts, model="offset-power")
    c, a, p, b = res.values
    assert c == pytest.approx(0.11, rel=1e-6)
    assert a == pytest.approx(0.57, rel=1e-6)
    assert p == pytest.approx(0.5, rel=1e-6)
    assert b == pytest.approx(3.8, rel=1e-4)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, 0.5), (3, 0.3)])  # too few
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (1, 0.5), (3, 0.3), (4, 0.2)])  # duplicate n
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, 0.5), (3, 0.3), (4, 0.2)], model="cubic")


def test_power_fit_refuses_non_positive_y():
    pts = [(10, 0.1), (100, 0.05), (1000, 0.02), (10000, -0.01)]
    with pytest.raises(InvalidInput, match="y > 0"):
        fit_power_law(pts, model="power")
    with pytest.raises(InvalidInput, match="y > 0"):
        fit_power_law(pts[:3] + [(10000, 0.0)], model="power")


def test_offset_fit_accepts_negative_y():
    ns = np.geomspace(10, 1e4, 8)
    pts = [(n, 1.7 * n ** (-0.4) - 0.1) for n in ns]
    assert pts[-1][1] < 0
    res = fit_power_law(pts, model="offset-power")
    assert res.param("c")[0] == pytest.approx(-0.1, abs=1e-6)
    assert res.param("p")[0] == pytest.approx(0.4, rel=1e-6)


@pytest.mark.parametrize("model", ["power", "offset-power"])
@pytest.mark.parametrize("bad", [(100, math.inf), (100, math.nan), (math.inf, 0.05), (math.nan, 0.05)])
def test_fit_refuses_non_finite_samples(model, bad):
    pts = [(10, 0.1), bad, (1000, 0.02), (10000, 0.01)]
    with pytest.raises(NonFiniteInput, match="finite"):
        fit_power_law(pts, model=model)


def test_fit_diverged_on_starved_iterations(monkeypatch):
    ns = np.geomspace(10, 1e4, 8)
    pts = [(n, 1.7 * n ** (-0.4) + 0.03) for n in ns]
    monkeypatch.setattr(scan_fit, "FIT_MAXFEV", 1)
    with pytest.raises(FitDiverged):
        fit_power_law(pts, model="offset-power")


def _curve_fit(model, n, y):
    """scipy's curve_fit from the library's log-log start: (values, standard errors)."""
    curve_fit = pytest.importorskip("scipy.optimize").curve_fit
    if model == "power":
        slope, intercept = np.polyfit(np.log(n), np.log(y), 1)
        f, p0 = (lambda n, a, p: a * n ** -p), [math.exp(intercept), -slope]
    else:
        c0 = 0.9 * np.min(y)
        slope, intercept = np.polyfit(np.log(n), np.log(y - c0), 1)
        f, p0 = (lambda n, c, a, p, b: c + a * n ** -p + b / n), [c0, math.exp(intercept), -slope, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # OptimizeWarning where the covariance is infinite
        popt, pcov = curve_fit(f, n, y, p0=p0, maxfev=scan_fit.FIT_MAXFEV)
    return popt, np.sqrt(np.diag(pcov))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("model", ["power", "offset-power"])
def test_fit_matches_curve_fit(model, seed):
    """Seeded draws with relative noise 1e-3: the numpy fit lands where curve_fit does.

    p stays at or below 0.7 and N starts at 1: as p nears 1, N^-p and 1/N become one
    column, and on N >= 10 the b/N term sits in the noise; there neither solver pins the
    split between a and b to 1e-6.
    """
    rng = np.random.default_rng(seed)
    n = np.geomspace(1, 1e4, int(rng.integers(8, 15)))
    c, a, p, b = rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.3, 0.7), rng.uniform(0.5, 2)
    y = a * n ** -p + (c + b / n if model == "offset-power" else 0.0)
    y *= 1 + 1e-3 * rng.standard_normal(n.size)
    res = fit_power_law(list(zip(n, y)), model=model)
    values, stderr = _curve_fit(model, n, y)
    assert res.values == pytest.approx(values, rel=1e-6)
    assert res.stderr == pytest.approx(stderr, rel=1e-4)


def test_four_point_offset_fit_has_infinite_stderr():
    """m = k: the fit interpolates, and, as with curve_fit, no standard error is defined."""
    n = np.array([10.0, 100.0, 1000.0, 10000.0])
    y = (0.1 + 0.5 * n ** -0.5 + 2.0 / n) * (1 + 1e-3 * np.random.default_rng(3).standard_normal(4))
    res = fit_power_law(list(zip(n, y)), model="offset-power")
    values, stderr = _curve_fit("offset-power", n, y)
    assert res.values == pytest.approx(values, rel=1e-6)
    assert all(math.isinf(s) for s in res.stderr)
    assert all(math.isinf(s) for s in stderr)
    assert res.residual_norm < 1e-12


def test_n_scan_statuses_and_order():
    rows = n_scan(DEC_III, 1 - math.pi / 4, [100, 1000, 10000])
    assert [r[0] for r in rows] == [100, 1000, 10000]
    assert all(r[3] == "ok" for r in rows)
    assert rows[0][1] > rows[1][1] > rows[2][1]


def test_n_scan_single_subspace_class():
    dec = IrrepDecomposition(J32, (3,))
    rows = n_scan(dec, 1.0, [1000, 10000])
    assert all(r[3] == "ok" for r in rows)
    with pytest.raises(ValueError):
        n_scan(dec, 0.5, [1000])


@pytest.mark.parametrize(
    "zeta1_sq, match",
    [(-0.5, "zeta1_sq must lie in"), (1.5, "zeta1_sq must lie in"), (math.nan, "^zeta1_sq must be finite, got nan$")],
    ids=["-0.5", "1.5", "nan"],
)
def test_n_scan_refuses_weight_outside_unit_interval(zeta1_sq, match):
    with pytest.raises(InvalidInput, match=match):
        n_scan(DEC_III, zeta1_sq, [100])


def test_fit_on_generated_type_i_scaling():
    """Fitting the generated limits recovers the -2/3 exponent regime."""
    from spinsqueeze import find_limit, oat_spec

    dec = IrrepDecomposition(J32, (3,))
    pts = []
    for n in np.round(np.geomspace(1e3, 1e6, 8)).astype(int):
        res = find_limit(oat_spec(dec, int(n), (1,)))
        pts.append((int(n), res.xi2_min))
    res = fit_power_law(pts, model="power")
    assert abs(res.values[1] - 2.0 / 3.0) < 0.03
