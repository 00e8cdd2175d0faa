"""Parameter scans over initial weights / particle number and power-law fits.

Each scan row is one `find_limit` call on the row's ensemble, so a row is
exactly the limit of a per-row call.  Every search starts from the
one-block law's mu_min, which below N of about 1e7 leaves little for the
previous row's mu_min to add as a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classification import IrrepDecomposition
from .coherent_dynamics import find_limit, oat_spec
from .errors import FitDiverged, InvalidInput, NonFiniteInput, VanishingMeanSpin
from .lie_algebra import _particle_count, _real, _sequence

FIT_MAXFEV = 10_000  # model evaluations allowed to curve_fit before FitDiverged


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
            if isinstance(self.zeta1_sq_grid, (str, bytes)):  # iterates to characters, not numbers
                raise TypeError(f"got {self.zeta1_sq_grid!r}")
            grid = tuple(_real(w, "zeta1_sq") for w in self.zeta1_sq_grid)
        except (TypeError, InvalidInput) as exc:
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
        if abs(zeta1_sq - 1.0) > 1e-12:
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


def _pure_power(n, a, p):
    return a * np.power(n, -p)


def _offset_power(n, c, a, p, b):
    return c + a * np.power(n, -p) + b / n


def _loglog_init(n: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(a, p) from linear regression of log y on log n."""
    mask = y > 0
    if mask.sum() < 2:
        return float(np.max(np.abs(y))) or 1.0, 1.0
    slope, intercept = np.polyfit(np.log(n[mask]), np.log(y[mask]), 1)
    return math.exp(intercept), -slope


def fit_power_law(points, model: str = "power") -> FitResult:
    """Nonlinear least squares for y(N) = a N^-p or y(N) = c + a N^-p + b/N.

    Initial values come from log-log linear regression (for the offset model
    a constant just below the smallest sample is first subtracted); the
    refinement is Levenberg-Marquardt on the model residuals.  Standard errors
    are read off the Jacobian-based covariance at the optimum.
    """
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 4:
        raise InvalidInput(f"need at least 4 points to fit, got {len(pts)}")
    for n_i, y_i in pts:
        if not (math.isfinite(n_i) and math.isfinite(y_i)):
            raise NonFiniteInput(f"fits need finite samples, got (n, y) = ({n_i!r}, {y_i!r})")
    n = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(n <= 0) or len(set(n.tolist())) != len(n):
        raise InvalidInput(f"sample positions must be positive and distinct, got {sorted(n.tolist())}")

    if model == "power":
        if np.any(y <= 0):
            raise InvalidInput(f"the power model needs y > 0, got y = {float(np.min(y))!r}")
        func, names = _pure_power, ("a", "p")
        a0, p0 = _loglog_init(n, y)
        p0vec = [a0, p0]
    elif model == "offset-power":
        func, names = _offset_power, ("c", "a", "p", "b")
        y_min = float(np.min(y))
        c0 = (0.9 if y_min > 0 else 1.1) * y_min  # just below the smallest sample
        a0, p0 = _loglog_init(n, np.maximum(y - c0, 1e-300))
        p0vec = [c0, a0, p0, 0.0]
    else:
        raise InvalidInput(f"unknown model {model!r}")

    # Imported here, not at module level: scipy.optimize adds about 16 MB of
    # resident memory to every process that imports the package, and only
    # fits use it.
    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(func, n, y, p0=p0vec, maxfev=FIT_MAXFEV)
    except RuntimeError as exc:
        raise FitDiverged(str(exc)) from exc
    resid = y - func(n, *popt)
    with np.errstate(invalid="ignore"):
        stderr = np.sqrt(np.abs(np.diag(pcov)))
    return FitResult(
        model,
        names,
        tuple(float(v) for v in popt),
        tuple(float(s) for s in stderr),
        float(np.linalg.norm(resid)),
    )
