"""Parameter scans over initial weights / particle number and power-law fits.

Each scan row is one `find_limit` call on the row's ensemble, so a row is
exactly the limit of a per-row call.  Every search starts from the
one-block law's mu_min, which below N of about 1e7 leaves little for the
previous row's mu_min to add as a seed.

Power-law fits use numpy alone: `fit_power_law` is a variable projection, a
one-parameter Levenberg-Marquardt in the exponent over linear least-squares
solves for the other parameters.  Against scipy's curve_fit, which must import
scipy.optimize, on a 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6, scipy 1.17.1): a
`spinsqueeze fit` process peaks at 32 MB instead of 80 MB and ends in
0.19-0.32 s instead of 0.68-0.92 s; the first fit in a fresh interpreter takes
1-2 ms and 2 MB instead of 480-500 ms and 50 MB; the benchmark's 12-point
offset-power fit takes 0.27-0.53 ms instead of 0.99-1.15 ms, and its
closed_form workload peaks at 58 MB instead of 98 MB (medians of 10 runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classification import IrrepDecomposition
from .coherent_dynamics import WEIGHT_NORM_TOL, find_limit, oat_spec
from .errors import FitDiverged, InvalidInput, NonFiniteInput, VanishingMeanSpin
from .lie_algebra import _pair, _particle_count, _real, _sequence

FIT_MAXFEV = 10_000  # model evaluations allowed to one fit before FitDiverged
FIT_TOL = 1.49012e-8  # MINPACK's default xtol and ftol: the fit's relative step and cost change


@dataclass(frozen=True)
class ScanConfig:
    """Weight scan: first-subspace weight grid at fixed class and N.

    The remaining weight 1 - |zeta_1|^2 goes entirely to the second subspace;
    any further subspaces stay unpopulated.
    """

    decomposition: IrrepDecomposition
    n: int
    zeta1_sq_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            grid = tuple(_real(w, "zeta1_sq") for w in _sequence(self.zeta1_sq_grid, "zeta1_sq_grid"))
        except InvalidInput as exc:
            raise InvalidInput(f"the weight grid must be a sequence of numbers: {exc}") from exc
        object.__setattr__(self, "zeta1_sq_grid", grid)
        if self.decomposition.r < 2:
            raise InvalidInput(f"weight scans need at least two subspaces, got r = {self.decomposition.r}")
        if not grid:
            raise InvalidInput("the weight grid is empty")
        for w in grid:
            _check_weight(w)
        for a, b in zip(grid, grid[1:]):
            if b <= a:
                raise InvalidInput(f"grid must be strictly increasing, got {b!r} after {a!r}")
        # last, so a bad class or grid is named before a bad count
        object.__setattr__(self, "n", _particle_count(self.n))


@dataclass(frozen=True)
class ScanRow:
    zeta1_sq: float
    xi2_min: float
    mu_min: float
    status: str


def _check_weight(zeta1_sq: float) -> None:
    if not 0.0 <= _real(zeta1_sq, "zeta1_sq") <= 1.0:  # also refuses NaN
        raise InvalidInput(f"zeta1_sq must lie in [0, 1], got {zeta1_sq!r}")


def _two_weight_zeta(r: int, zeta1_sq: float) -> tuple[float, ...]:
    if r == 1:
        if abs(zeta1_sq - 1.0) > WEIGHT_NORM_TOL:
            raise InvalidInput(f"a single-subspace class only admits zeta1_sq = 1, got {zeta1_sq!r}")
        return (1.0,)
    zeta = [0.0] * r
    zeta[0] = math.sqrt(zeta1_sq)
    zeta[1] = math.sqrt(max(0.0, 1.0 - zeta1_sq))
    return tuple(zeta)


def _scan_point(decomposition: IrrepDecomposition, n: int, zeta1_sq: float) -> ScanRow:
    spec = oat_spec(decomposition, n, _two_weight_zeta(decomposition.r, zeta1_sq))
    try:
        res = find_limit(spec)
    except VanishingMeanSpin:
        return ScanRow(zeta1_sq, math.nan, math.nan, "undefined")
    return ScanRow(zeta1_sq, res.xi2_min, res.mu_min, res.status)


def zeta_scan(config: ScanConfig) -> list[ScanRow]:
    """Squeezing limit along the first-subspace weight grid, in grid order."""
    return [_scan_point(config.decomposition, config.n, w) for w in config.zeta1_sq_grid]


def n_scan(
    decomposition: IrrepDecomposition, zeta1_sq: float, n_values
) -> list[tuple[int, float, float, str]]:
    """Squeezing limit versus particle number at a fixed weight split, in list order."""
    _check_weight(zeta1_sq)
    ns = [_particle_count(n) for n in _sequence(n_values, "n_values")]
    if not ns:
        raise InvalidInput("no particle numbers to scan")
    rows = [_scan_point(decomposition, n, zeta1_sq) for n in ns]
    return [(n, row.xi2_min, row.mu_min, row.status) for n, row in zip(ns, rows)]


@dataclass(frozen=True)
class FitResult:
    """Fitted model with per-parameter standard errors."""

    model: str
    names: tuple[str, ...]
    values: tuple[float, ...]
    stderr: tuple[float, ...]
    residual_norm: float

    def param(self, name: str) -> tuple[float, float]:
        i = self.names.index(name)
        return self.values[i], self.stderr[i]


def _loglog_exponent(n: np.ndarray, y: np.ndarray) -> float:
    """p from linear regression of log y on log n."""
    mask = y > 0
    if mask.sum() < 2:
        return 1.0
    log_n, log_y = np.log(n[mask]), np.log(y[mask])
    log_n -= log_n.mean()
    return -float(log_n @ (log_y - log_y.mean())) / float(log_n @ log_n)


def _sample(point) -> tuple[float, float]:
    """(n, y) from one sample, which must be a pair of real numbers."""
    n, y = _pair(point, "a sample")
    return _real(n, "a sample's n"), _real(y, "a sample's y")


class _Projection:
    """Least squares at a fixed exponent p, for X = [fixed columns, n^-p] and samples y.

    The fixed columns (none, or 1 and 1/n) have the orthonormal basis Q_f, factored once;
    each trial p only orthogonalizes n^-p against it, which makes q, the last column of
    X = QR, and R's last diagonal entry |n^-p - Q_f Q_f^T n^-p|.  A plain class: a
    dataclass would add about 0.7 ms to every import of the package.
    """

    def __init__(self, n: np.ndarray, y: np.ndarray, basis: np.ndarray) -> None:
        self.n, self.log_n, self.basis = n, np.log(n), basis
        self.y_perp = self._off_basis(y)

    def _off_basis(self, v: np.ndarray) -> np.ndarray:
        return v - self.basis @ (self.basis.T @ v)

    def __call__(self, p: float):
        """(a, residual, cost, d residual/dp) at p, a the coefficient of n^-p; None where
        n^-p leaves the floats or falls into the span of the fixed columns.

        The derivative is Golub and Pereyra's, -(1 - X X^+) dX coef - (X^+)^T dX^T residual,
        with dX = dX/dp zero but for its last column, d(n^-p)/dp; (X^+)^T e_last = q / R_last.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.power(self.n, -p)
            q = self._off_basis(self._off_basis(t))  # twice is enough (Gram-Schmidt)
            norm = math.sqrt(q @ q)
        if not 0.0 < norm < math.inf:
            return None
        q /= norm
        qy = float(q @ self.y_perp)
        resid = self.y_perp - qy * q
        dt = -self.log_n * t
        dt_perp = self._off_basis(dt)
        dt_perp -= (q @ dt_perp) * q
        a = qy / norm
        return a, resid, float(resid @ resid), -a * dt_perp - (float(dt @ resid) / norm) * q


def _refine_exponent(project: _Projection, p: float):
    """Levenberg-Marquardt in the exponent alone: (p, a, residual) at the optimum.

    Each step is the damped Gauss-Newton step -(J.r) / ((1 + lam) J.J) on the projected
    residual r(p).  Every projection counts against FIT_MAXFEV.
    """
    cur = project(p)
    if cur is None:
        raise FitDiverged(f"n^-p is out of range at the start exponent p = {p!r}")
    evaluations, lam = 1, 0.0
    while True:
        a, resid, cost, jac = cur
        jr, jj = float(jac @ resid), float(jac @ jac)
        if cost == 0.0 or jr == 0.0 or jj == 0.0:  # an exact fit, or a stationary point
            return p, a, resid
        if evaluations >= FIT_MAXFEV:
            raise FitDiverged(f"no convergence within {FIT_MAXFEV} model evaluations")
        step = -jr / ((1.0 + lam) * jj)
        trial = project(p + step)
        evaluations += 1
        actual = cost - trial[2] if trial is not None else -math.inf
        predicted = -step * (2.0 * jr + step * jj)  # cost - |r + J step|^2
        converged = abs(step) <= FIT_TOL * abs(p) or (
            abs(actual) <= FIT_TOL * cost and predicted <= FIT_TOL * cost
        )
        if actual > 0.0:
            p, cur, lam = p + step, trial, lam / 10.0
        else:
            lam = 10.0 * lam if lam else 1.0
        if converged:
            return p, cur[0], cur[1]


def fit_power_law(points, model: str = "power") -> FitResult:
    """Least squares for y(N) = a N^-p or y(N) = c + a N^-p + b/N, with numpy alone.

    Both models are linear in every parameter but p, so the fit is a variable projection
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): at each trial p a linear least
    squares solve gives a (or c, a, b), and a one-parameter Levenberg-Marquardt moves p
    until the relative step or the relative change of the squared residual is at most
    FIT_TOL, MINPACK's default.  The start is log-log linear regression (for the offset model
    a constant just below the smallest sample is first subtracted).  Standard errors follow
    scipy's curve_fit: cov = (J^T J)^-1 SSR / (m - k) with J the analytic Jacobian at the
    optimum, all infinite when m = k or J^T J is singular.

    Near p = 1 the offset model's N^-p and b/N columns become one, so a and b are
    undetermined: only their sum is fitted, and the split follows the noise.  Nothing is
    flagged; the standard errors show it, as a's grows to the size of a itself, though the
    values may lie several errors from the truth.  On 10 samples at N = 10..1e3 with relative
    noise 1e-4 and c, a, b = 0.3, 0.76, 1.87, a true p = 0.5 fits a = 0.755 +- 0.012, but a
    true p = 0.97 fits a = -0.32 +- 0.23 and b = 2.93 +- 0.24.
    """
    pts = [_sample(pt) for pt in _sequence(points, "points")]
    if len(pts) < 4:
        raise InvalidInput(f"need at least 4 points to fit, got {len(pts)}")
    for n_i, y_i in pts:
        if not (math.isfinite(n_i) and math.isfinite(y_i)):
            raise NonFiniteInput(f"fits need finite samples, got (n, y) = ({n_i!r}, {y_i!r})")
    n = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(n <= 0) or len(set(n.tolist())) != len(n):
        raise InvalidInput(f"sample positions must be positive and distinct, got {sorted(n.tolist())}")

    # X = [fixed columns, n^-p]; `order` takes (fixed coefficients..., a, p) to `names`.
    if model == "power":
        if np.any(y <= 0):
            raise InvalidInput(f"the power model needs y > 0, got y = {float(np.min(y))!r}")
        names, fixed, order = ("a", "p"), np.empty((len(n), 0)), [0, 1]
        p0 = _loglog_exponent(n, y)
    elif model == "offset-power":
        names, fixed, order = ("c", "a", "p", "b"), np.column_stack((np.ones_like(n), 1.0 / n)), [0, 2, 3, 1]
        y_min = float(np.min(y))
        c0 = (0.9 if y_min > 0 else 1.1) * y_min  # just below the smallest sample
        p0 = _loglog_exponent(n, np.maximum(y - c0, 1e-300))
    else:
        raise InvalidInput(f"unknown model {model!r}")

    basis, r_fixed = np.linalg.qr(fixed)
    project = _Projection(n, y, basis)
    p, a, resid = _refine_exponent(project, p0)
    t = np.power(n, -p)
    values = np.array([*np.linalg.solve(r_fixed, basis.T @ (y - a * t)), a, p])[order]
    jac = np.column_stack((fixed, t, -a * project.log_n * t))[:, order]  # d model / d parameters
    ssr = float(resid @ resid)
    stderr = np.full(len(names), math.inf)
    if len(n) > len(names):
        r = np.linalg.qr(jac, mode="r")
        if np.diagonal(r).all():
            r_inv = np.linalg.inv(r)
            cov_diag = np.einsum("ij,ij->i", r_inv, r_inv) * (ssr / (len(n) - len(names)))
            if not np.isnan(cov_diag).any():
                stderr = np.sqrt(cov_diag)
    return FitResult(model, names, tuple(values.tolist()), tuple(stderr.tolist()), math.sqrt(ssr))
