"""Reference observables for the tests.

The closed forms never build operators; the dense single-particle quadratures
of a class triple let the tests measure the same quantities on the exact
oracle's states.  `type_iii_reference` is the paper's printed {1/2, 1/2}
expression for xi^2, which the tests hold against the exact closed form.
`sweep_limit_reference` is the limit search that `find_limit` replaced: a
128-point sweep over six decades of mu, then a golden section to the same
GOLDEN_REL_TOL that `find_limit`'s Brent refinement uses.
`dense_limit_reference` is the small-N judge: a linear grid over (0, 2 pi]
with every local minimum refined by `_brent`.
`moments_reference` is the `_moments` that the flat pass replaced, one helper
call per log, power and 1 - power; the kernel must return the same floats.
`su2_triple_reference` is the per-block construction that `build_su2_triple`
replaced: each block's `spin_matrices`, scaled by f, added into zero matrices,
on the blocks of `reference_blocks`, the run walk that `_layout` replaced.
`simple_root_ladders` picks the simple roots out of `compute_roots`.
`twisted` is the twisted state that `OracleWorkspace.squeezing` measures.
"""

import itertools
import math

import mpmath
import numpy as np

from spinsqueeze import (
    HermitianOperator,
    LimitResult,
    SpinQuantum,
    Su2Triple,
    VertexSubset,
    compute_roots,
    default_cartan,
    squeeze_trace,
)
from spinsqueeze.classification import decompose_subset
from spinsqueeze.coherent_dynamics import (
    GOLDEN_REL_TOL,
    MU_MAX,
    _brent,
    _moments,
    _var_min,
    _xi2,
)
from spinsqueeze.errors import VanishingMeanSpin
from spinsqueeze.exact_oracle import SymmetricState
from spinsqueeze.lie_algebra import spin_matrices

GRID_POINTS = 128
MAX_EXPANSIONS = 8  # the sweep's widenings of its upper edge, frozen with it

mp = mpmath.MPContext()  # 60 digits for the test references; the global precision stays as it is
mp.dps = 60


def reference_blocks(subset: VertexSubset) -> tuple[tuple[int, int], ...]:
    """The subset's (level offset, 2J_l) blocks: runs longest first, then left to right, then singlets."""
    # consecutive vertices share the same vertex - position in sorted order
    groups = itertools.groupby(enumerate(sorted(subset.chosen)), key=lambda p: p[1] - p[0])
    runs = sorted(((run[0][1] - 1, len(run)) for run in (list(g) for _, g in groups)), key=lambda b: (-b[1], b[0]))
    covered = {level for off, t in runs for level in range(off, off + t + 1)}
    return tuple(runs + [(level, 0) for level in range(subset.j.dim) if level not in covered])


def su2_triple_reference(subset: VertexSubset) -> Su2Triple:
    """Block direct sum of f times each run's spin matrices; untouched levels stay zero."""
    blocks = reference_blocks(subset)
    dec = decompose_subset(subset)
    dim = subset.j.dim
    mats = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for off, twice_sub in blocks:
        if twice_sub == 0:
            continue
        size = twice_sub + 1
        for target, source in zip(mats, spin_matrices(SpinQuantum(twice_sub))):
            target[off : off + size, off : off + size] += dec.f * source.matrix
    return Su2Triple(*(HermitianOperator(m) for m in mats), dec)


def simple_root_ladders(basis) -> list[np.ndarray]:
    """The root ladders raising level k to level k - 1, for the Dynkin vertices k = 1..2J."""
    ladders = {tuple(np.argwhere(rd.ladder)[0]): rd.ladder for rd in compute_roots(basis, default_cartan(basis))}
    return [ladders[(k - 1, k)] for k in range(1, basis.j.twice_j + 1)]


def twisted(ws, coherent, mu: float) -> SymmetricState:
    """The workspace's coherent state twisted to mu; a non-finite mu is refused."""
    return SymmetricState(ws.basis, ws._twisted_amplitudes(coherent, mu)[0])


def perp_observable(triple: Su2Triple, theta: float, phi: float) -> HermitianOperator:
    """Mean-spin direction O_1 cos(phi) sin(theta) + O_2 sin(phi) sin(theta) + O_3 cos(theta)."""
    m = (
        math.cos(phi) * math.sin(theta) * triple.o1.matrix
        + math.sin(phi) * math.sin(theta) * triple.o2.matrix
        + math.cos(theta) * triple.o3.matrix
    )
    return HermitianOperator(m)


def transverse_observable(triple: Su2Triple, theta: float, phi: float, nu: float) -> HermitianOperator:
    """Quadrature at angle nu in the plane perpendicular to the mean spin."""
    m = (
        (math.cos(phi) * math.cos(theta) * math.cos(nu) - math.sin(phi) * math.sin(nu))
        * triple.o1.matrix
        + (math.sin(phi) * math.cos(theta) * math.cos(nu) + math.cos(phi) * math.sin(nu))
        * triple.o2.matrix
        - math.sin(theta) * math.cos(nu) * triple.o3.matrix
    )
    return HermitianOperator(m)


def oat_transverse_observable(triple: Su2Triple, nu: float) -> HermitianOperator:
    """O_2 cos(nu) - O_3 sin(nu), the twisting-plane quadrature."""
    return HermitianOperator(math.cos(nu) * triple.o2.matrix - math.sin(nu) * triple.o3.matrix)


def type_iii_reference(spec, mu):
    """The paper's printed {1/2, 1/2} xi^2 at 60 digits.

    Each subspace contributes Delta_l = lead_l - sqrt(lead_l^2 + [4 w_l sin(mu/2) v_l]^2)
    with lead_l = 1 - (1 - 2 w_l sin^2(mu/2))^(N-2) and v_l = (1 - 2 w_l sin^2(mu/4))^(N-2),
    over one power of the mean-spin factor sum_l w_l (1 - 2 w_l sin^2(mu/4))^(N-1),
    where w_l = |zeta_l|^2.
    """
    n = spec.n
    sh, sq4 = mp.sin(mp.mpf(mu) / 2), mp.sin(mp.mpf(mu) / 4) ** 2
    denom = delta = mp.mpf(0)
    for w in map(mp.mpf, spec.coherent.weights):
        denom += w * (1 - 2 * w * sq4) ** (n - 1)
        lead = 1 - (1 - 2 * w * sh * sh) ** (n - 2)
        delta += lead - mp.sqrt(lead**2 + (4 * w * sh * (1 - 2 * w * sq4) ** (n - 2)) ** 2)
    return (1 + (n - 1) * delta / 4) / denom


def _log1m(v: float) -> tuple[float, bool]:
    """(log|1 - v|, 1 - v < 0); log1p keeps the digits of a small v."""
    if v < 1.0:
        return math.log1p(-v), False
    return (math.log(v - 1.0) if v > 1.0 else -math.inf), True


def _log_cos(x: float) -> tuple[float, bool]:
    """(log|cos x|, cos x < 0) as log1p(-2 sin^2(x/2)), or log1p(-2 cos^2(x/2)) once cos x < 0."""
    s, c = math.sin(0.5 * x), math.cos(0.5 * x)
    if abs(s) <= abs(c):
        return _log1m(2.0 * s * s)
    return _log1m(2.0 * c * c)[0], True


def _pow(lx: float, nx: bool, k: int, ly: float = 0.0, ny: bool = False, m: int = 0) -> tuple[float, bool]:
    """x^k y^m as (log|.|, sign < 0) from (log|x|, x < 0) and (log|y|, y < 0); exponents below 1 count as 0."""
    log = (k * lx if k > 0 else 0.0) + (m * ly if m > 0 else 0.0)
    return log, (nx and k % 2 == 1) != (ny and m % 2 == 1)


def _value(log: float, neg: bool) -> float:
    return -math.exp(log) if neg else math.exp(log)


def _one_minus(log: float, neg: bool) -> float:
    """1 - value, as -expm1(log) where the value is positive."""
    return 1.0 + math.exp(log) if neg else -math.expm1(log)


def moments_reference(spec, mu: float) -> tuple[float, float, float, float]:
    """(mean, base, P, Q) of the twisted state, one helper call per power, for a checked mu.

    The same floating-point operations in the same order as `_moments`:
    the shrink factors 1 - w (1 - cos^(2 J_l) x) at x = mu and mu / 2 as
    logs, then each power exp(k log|x| + m log|y|) with the sign of its
    negative bases' odd exponents.
    """
    n = spec.n
    lc, nc = _log_cos(mu)
    lh, nh = _log_cos(0.5 * mu)
    mean = p = q = 0.0
    for jl, tj, w in spec.active_blocks:
        ls, ns = _log1m(w * _one_minus(*_pow(lc, nc, tj)))
        lsh, nsh = _log1m(w * _one_minus(*_pow(lh, nh, tj)))
        jw, pair, single = jl * w, jl * (n - 1) * w, jl - 0.5
        mean += jw * _value(*_pow(lh, nh, tj - 1, lsh, nsh, n - 1))
        p += jw * pair * _one_minus(*_pow(lc, nc, 2 * tj - 2, ls, ns, n - 2))
        p += jw * single * _one_minus(*_pow(lc, nc, tj - 2, ls, ns, n - 1))
        q += jw * pair * _value(*_pow(lh, nh, 2 * tj - 2, lsh, nsh, n - 2))
        q += jw * single * _value(*_pow(lh, nh, tj - 2, lsh, nsh, n - 1))
    f = spec.decomposition.f
    pref = 0.5 * f * f * n
    return f * n * mean, pref * spec.c_sum, 0.5 * pref * p, 2.0 * math.sin(0.5 * mu) * pref * q


def sweep_limit_reference(spec) -> LimitResult:
    """Minimize xi^2 over mu in (0, 2 pi]: log-spaced coarse grid, then golden section.

    The sweep covers (0, mu_hi], starting at 200 (J_1 N)^(-2/3) and quadrupled
    whenever the coarse minimum lands on the upper edge, never past MU_MAX.
    A search that never sees xi^2 < 1 reports status "no_squeezing" instead of
    raising.
    """
    if spec.c_sum <= 0.0:
        raise VanishingMeanSpin("no weight on nontrivial subspaces")
    j1 = spec.decomposition.twice_subspins[0] / 2.0
    mu_hi = min(200.0 * (j1 * spec.n) ** (-2.0 / 3.0), MU_MAX)
    evaluations = 0

    for _ in range(MAX_EXPANSIONS + 1):
        grid = np.geomspace(mu_hi * 1e-6, mu_hi, GRID_POINTS)
        values = [squeeze_trace(spec, float(m)).xi2 for m in grid]
        evaluations += len(grid)
        best = int(np.argmin(values))
        if best == GRID_POINTS - 1 and math.isfinite(values[best]) and mu_hi < MU_MAX:
            mu_hi = min(4.0 * mu_hi, MU_MAX)
            continue
        break

    if not math.isfinite(values[best]):
        return LimitResult(math.inf, math.nan, evaluations, "no_squeezing")

    lo = float(grid[best - 1]) if best > 0 else float(grid[0]) * 1e-3
    hi = float(grid[best + 1]) if best < GRID_POINTS - 1 else float(grid[-1])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = squeeze_trace(spec, c).xi2, squeeze_trace(spec, d).xi2
    evaluations += 2
    while b - a > GOLDEN_REL_TOL * b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = squeeze_trace(spec, c).xi2
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = squeeze_trace(spec, d).xi2
        evaluations += 1
    mu_min = c if fc <= fd else d
    xi2_min = min(fc, fd)
    if xi2_min >= 1.0:
        return LimitResult(xi2_min, mu_min, evaluations, "no_squeezing")
    return LimitResult(xi2_min, mu_min, evaluations, "ok")


def dense_limit_reference(spec, points: int = 4000) -> tuple[float, float]:
    """(xi2_min, mu_min) over mu_k = 2 pi k / points, k = 1..points, each local grid minimum refined by `_brent`.

    A grid value no larger than its neighbours counts as a local minimum;
    the refinement brackets it by those neighbours (the first by 1e-3 of
    its own mu).  Each point reads xi^2 as the limit search does, through
    `_moments`, `_var_min` and `_xi2`, so a collapsed mean reads inf.  A
    minimum next to an inf is a dip that ends at the collapsed-mean guard:
    it keeps its grid value, since Brent's method would walk into the float
    noise beside the guard (N = 2, all weight on one J_l = 1/2 block, read
    0.4999999978 there, below the infimum 1/2).
    While 4 J_max N <= points, the grid samples the moments of xi^2 at or
    above their Nyquist rate; that bounds no dip of xi^2 itself, but no
    measured draw there missed one.  At larger N a dip narrower than the
    spacing can fall between points.  (inf, nan) when no grid value is
    finite.
    """

    def xi2(mu: float) -> float:
        mean, base, p, q = _moments(spec, mu)
        return _xi2(spec, mean, _var_min(base, p, q))

    mus = [MU_MAX * k / points for k in range(1, points + 1)]
    values = [xi2(mu) for mu in mus]
    best = (math.inf, math.nan)
    for k, v in enumerate(values):
        if not math.isfinite(v) or (k > 0 and values[k - 1] < v) or (k < points - 1 and values[k + 1] < v):
            continue
        best = min(best, (v, mus[k]))
        if not all(math.isfinite(values[i]) for i in (k - 1, k + 1) if 0 <= i < points):
            continue
        lo = mus[k - 1] if k > 0 else 1e-3 * mus[0]
        hi = mus[k + 1] if k < points - 1 else mus[k]
        mu, x, _ = _brent(xi2, lo, hi)
        best = min(best, (x, mu))
    return best
