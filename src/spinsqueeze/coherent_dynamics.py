"""Closed-form coherent-state expectations and one-axis-twisting dynamics.

Everything here is exact arithmetic on the class data (subspins J_l,
structure factor f, weights |zeta_l|^2, particle number N); no state vectors
are built.  The one-axis-twisting protocol starts from the coherent state at
theta = pi/2, phi = 0 and applies exp(-i mu Lambda_{l,3}^2 / (2 f^2)) inside
each irreducible block, with mu the rescaled time (see the exact_oracle
module for the block-resolved generator); the twisting closed forms refuse
any other start with NotOatStart.  Transverse fluctuations are
minimized analytically over the quadrature angle nu, measured in the
O_2-O_3 plane via O_nu = O_2 cos(nu) - O_3 sin(nu).

Each formula has one home.  `EnsembleSpec` derives the active blocks
(J_l > 0 and |zeta_l|^2 > 0), c_sum = sum_l J_l |zeta_l|^2, the
collapsed-mean bound `mean_guard` = XI2_MEAN_GUARD f N c_sum and each active
block's kernel constants (its integer exponents, the parity of 2 J_l and its
three coefficients) once per ensemble.  `_moments` is the one pass over those
blocks: it returns the mean <O_1> and (base, P, Q) of the variance
base + P (1 + cos 2 nu) - Q sin 2 nu, where base is the O_3 variance, which
twisting conserves.  `_var_min` turns (base, P, Q) into the minimal
variance, and `_extrema` adds the maximal one and the minimizing angle;
`_xi2` holds the squeezing parameter and the one rule for when it is
defined, read by every caller: inf once the mean has collapsed to
`mean_guard`, XI2_MEAN_GUARD of its coherent value.  `_trace` finishes a
record from the mean and (base, P, Q), and `squeeze_trace` feeds it
`_moments`; that is the one public per-mu entry point: the mean, the
extremal variances, the minimizing angle and xi^2 are all fields of its
record.  `find_limit` minimizes xi^2 over mu with one search: Brent's method
alone on [0.4 mu*, 1.2 mu*] around the one-axis-twisting law's
mu* = 12^(1/6) c_max^(-2/3), c_max the largest J_l |zeta_l|^2 N, where that
bracket fits and settles the minimum, and otherwise one linear grid of
4 J_max N + 1 values, at most GRID_POINTS, whose every local minimum
`_brent` refines.  Each point composes `_moments`, `_var_min` and `_xi2`
directly, computing var_min alone rather than a record.  The scans in
scan_fit call `find_limit` once per row.
The css_* functions give the untwisted coherent values, and the exact
oracle finishes its measured moments with `_trace`.

`_moments` checks nothing.  `squeeze_trace` refuses a mu that is not a
finite number >= 0 and a start off theta = pi/2, phi = 0 at every call;
`find_limit` refuses such a start once, before its first evaluation, and
every mu it makes is finite and >= 0 by construction.

The pass works in the log domain, as one flat loop with no helper call per
block.  log|cos mu| and log|cos(mu/2)| are taken once per mu as
log1p(-2 sin^2) of the half angle (of the cosine past |cos| = 0), and each
subspace's two shrink factors 1 - w (1 - cos^(2 J_l)) once as log1p; all
exponents are integers, so a negative base is exact by parity.  Every power
is an exp of a sum of logs, every 1 - power an -expm1, and
var_min = base - Q^2 / (P + sqrt(P^2 + Q^2)) with P >= 0, so no step
cancels except that final subtraction, which is xi^2's own conditioning.
The loop makes the same float operations in the same order as the
per-helper kernel it replaced (kept as tests/observables.py's
`moments_reference`), so it returns the same floats.
Against a 60-digit evaluation of the same formulas, the relative error of
xi^2 around the limit is at most 7e-13 at N = 1e5, 6e-11 at N = 1e7 and
5e-10 at N = 1e9 (tests/test_kernel_precision.py); the kernel stays scalar
`math` code, because a numpy version is slower for the single-mu calls that
the limit search and the oracle comparison make.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from .classification import IrrepDecomposition
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteInput,
    NormalizationError,
    NotOatStart,
    VanishingMeanSpin,
)
from .lie_algebra import _exact_int, _particle_count, _real, _sequence

# Most points of the limit search's linear grid, which takes 4 J_max N + 1 below that.
GRID_POINTS = 32
GOLDEN_REL_TOL = 1e-6  # relative precision in mu of the refined limit
# The limit search first runs Brent's method alone on [_LAW_LO mu*, _LAW_HI mu*],
# mu* the one-block law's mu_min at c_max = max_l J_l |zeta_l|^2 N.  On 2654
# law-seeded one-block draws (N = 2 to 1e9) mu_min / mu* never exceeded 1.000;
# on the 864 multi-block draws of the closed_form bench's seeds 1-3 it lay in
# 0.477-1.091, so the bracket reaches further below mu* than above it.  On
# 3000 multi-block draws with N log-uniform in [2, 1e9] it ran 2932 times and
# stood on 2700, at 0.409-1.124; on the other 232 the limit lay below 0.41 mu*.
_LAW_LO, _LAW_HI = 0.4, 1.2
_LAW_EDGE = 0.01  # share of that bracket at each end where a minimum sends it back to the grid
MU_MAX = 2.0 * math.pi  # xi^2 repeats every 4 pi and mirrors about 2 pi
OAT_ANGLE_TOL = 1e-12
WEIGHT_NORM_TOL = 1e-12  # |sum |zeta_l|^2 - 1| accepted as normalized
# Share of its coherent value the mean must keep for xi^2 to count: at or
# below it xi^2 is numerically unconditioned, and `_xi2` reads it as inf.
XI2_MEAN_GUARD = 1e-4
# An "ok" xi^2_min must lie above this floor: the kernel rounds xi^2 by up to
# 7e-16 absolute (measured for N = 1e9 to 1e23), more than 1e-3 of any value below it.
_XI2_FLOOR = 1e-12


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent-state parameters: polar angles and per-subspace weights."""

    theta: float
    phi: float
    zeta: tuple[complex, ...]
    # derived once: |zeta_l|^2 per subspace
    weights: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            z = tuple(complex(v) for v in _sequence(self.zeta, "zeta"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"zeta must be a sequence of numbers, got {self.zeta!r}") from exc
        object.__setattr__(self, "zeta", z)
        for name in ("theta", "phi"):
            _real(getattr(self, name), name)
        if not (math.isfinite(self.theta) and math.isfinite(self.phi) and all(map(cmath.isfinite, z))):
            raise NonFiniteInput(
                f"coherent-state parameters must be finite, got theta = {self.theta!r}, "
                f"phi = {self.phi!r}, zeta = {z!r}"
            )
        try:
            weights = tuple(abs(v) ** 2 for v in z)
        except OverflowError:  # a finite weight whose square is past the float range
            weights = (math.inf,)
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_NORM_TOL:
            raise NormalizationError(f"sum |zeta|^2 = {total!r}, expected 1")
        object.__setattr__(self, "weights", weights)


def _check_weight_count(decomposition: IrrepDecomposition, coherent: CoherentSpec) -> None:
    """Refuse with DimensionMismatch a weight count that is not the class's r."""
    if len(coherent.zeta) != decomposition.r:
        raise DimensionMismatch(f"{len(coherent.zeta)} weights for r = {decomposition.r} subspaces")


@dataclass(frozen=True)
class EnsembleSpec:
    """N identical spin-J particles with a class decomposition and weights."""

    n: int
    decomposition: IrrepDecomposition
    coherent: CoherentSpec
    # derived once: (J_l, 2 J_l, |zeta_l|^2), in subspin order, of the subspaces
    # with spin and weight, c_sum = sum_l J_l |zeta_l|^2 over them, and the
    # collapsed-mean bound XI2_MEAN_GUARD * f N c_sum that `_xi2` reads
    active_blocks: tuple[tuple[float, int, float], ...] = field(init=False, repr=False, compare=False)
    c_sum: float = field(init=False, repr=False, compare=False)
    mean_guard: float = field(init=False, repr=False, compare=False)
    # derived once: what `_moments` reads of each active block, with w_l = |zeta_l|^2:
    # (2 J_l, w_l, its exponents 2 J_l - 1, 4 J_l - 2 and 2 J_l - 2, whether 2 J_l is
    # odd, and the coefficients J_l w_l, J_l w_l * J_l (N - 1) w_l, J_l w_l * (J_l - 1/2))
    kernel_blocks: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _particle_count(self.n))
        _check_weight_count(self.decomposition, self.coherent)
        blocks, kernel_blocks = [], []
        for tj, w in zip(self.decomposition.twice_subspins, self.coherent.weights):
            if tj > 0 and w > 0.0:
                jl = tj / 2.0
                jw = jl * w
                blocks.append((jl, tj, w))
                kernel_blocks.append(
                    (tj, w, tj - 1, 2 * tj - 2, tj - 2, tj % 2 == 1, jw, jw * (jl * (self.n - 1) * w), jw * (jl - 0.5))
                )
        c_sum = sum(jl * w for jl, _, w in blocks)
        object.__setattr__(self, "active_blocks", tuple(blocks))
        object.__setattr__(self, "c_sum", c_sum)
        object.__setattr__(self, "mean_guard", XI2_MEAN_GUARD * (self.decomposition.f * self.n * c_sum))
        object.__setattr__(self, "kernel_blocks", tuple(kernel_blocks))


def oat_spec(decomposition: IrrepDecomposition, n: int, zeta) -> EnsembleSpec:
    """Ensemble prepared for one-axis twisting (theta = pi/2, phi = 0)."""
    return EnsembleSpec(n, decomposition, CoherentSpec(math.pi / 2, 0.0, zeta))


@dataclass(frozen=True)
class SqueezeTrace:
    """Record of the transverse moments at one rescaled time mu."""

    mu: float
    perp_expectation: float
    var_min: float
    var_max: float
    nu_min: float
    xi2: float


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a squeezing-limit search over mu."""

    xi2_min: float
    mu_min: float
    iterations: int  # xi^2 evaluations
    status: str  # "ok" or "no_squeezing"


def css_expectation_perp(spec: EnsembleSpec) -> float:
    """Coherent-state mean spin f N sum_l J_l |zeta_l|^2 (any theta, phi)."""
    return spec.decomposition.f * spec.n * spec.c_sum


def css_fluctuation(spec: EnsembleSpec) -> float:
    """Transverse variance f^2 N / 2 * sum_l J_l |zeta_l|^2, the same at every quadrature angle."""
    f = spec.decomposition.f
    return 0.5 * f * f * spec.n * spec.c_sum


def _check_start(spec: EnsembleSpec) -> None:
    """Refuse a start off theta = pi/2, phi = 0, which the twisting closed forms assume."""
    c = spec.coherent
    if abs(c.theta - math.pi / 2) > OAT_ANGLE_TOL or abs(c.phi) > OAT_ANGLE_TOL:
        raise NotOatStart(f"closed forms need theta = pi/2, phi = 0, got {c.theta!r}, {c.phi!r}")


def _check_oat(spec: EnsembleSpec, mu: float) -> None:
    """Refuse a mu that is not a finite number >= 0, then a start off theta = pi/2, phi = 0.

    NaN slips past mu < 0, so finiteness comes first.
    """
    mu = _real(mu, "mu")
    if not math.isfinite(mu):
        raise NonFiniteInput(f"mu must be finite, got {mu!r}")
    if mu < 0:
        raise InvalidInput(f"mu must be >= 0, got {mu!r}")
    _check_start(spec)


def _log_cos(x: float) -> tuple[float, bool]:
    """(log|cos x|, cos x < 0) as log1p(-2 sin^2(x/2)), or log1p(-2 cos^2(x/2)) once cos x < 0."""
    s, c = math.sin(0.5 * x), math.cos(0.5 * x)
    small = abs(s) <= abs(c)
    v = 2.0 * s * s if small else 2.0 * c * c
    if v < 1.0:
        return math.log1p(-v), not small
    return (math.log(v - 1.0) if v > 1.0 else -math.inf), True


def _moments(spec: EnsembleSpec, mu: float) -> tuple[float, float, float, float]:
    """(mean, base, P, Q) of the twisted state, in one pass over the active subspaces.

    mean is <O_1>(mu).  The variance of O_2 cos(nu) - O_3 sin(nu) is
    base + P (1 + cos 2 nu) - Q sin 2 nu, where base = f^2 N c_sum / 2 is the
    O_3 variance, which twisting conserves, and P >= 0.  Every power
    x^k y^m is exp(k log|x| + m log|y|), its sign the parity of the negative
    bases' exponents, and every 1 - power an expm1, so nothing cancels.  An
    exponent below 1 counts as 0, so 0 * log 0 never makes a NaN; a negative
    one only occurs where its coefficient vanishes (N = 1 or J_l = 1/2).
    mu is not checked here: `squeeze_trace` checks it, and the limit search
    makes only finite mu >= 0.
    """
    n1, n2 = spec.n - 1, spec.n - 2
    odd1, odd2 = n1 % 2 == 1, n2 % 2 == 1
    lc, nc = _log_cos(mu)
    lh, nh = _log_cos(0.5 * mu)
    mean = p = q = 0.0
    for tj, w, k1, k2, k3, odd, jw, jw_pair, jw_single in spec.kernel_blocks:
        # shrink factors s = 1 - w (1 - cos^(2 J_l) x) at x = mu and mu / 2, as (log|s|, s < 0)
        v = w * (1.0 + math.exp(tj * lc) if nc and odd else -math.expm1(tj * lc))
        if v < 1.0:
            ls, ns = math.log1p(-v), False
        else:
            ls, ns = (math.log(v - 1.0) if v > 1.0 else -math.inf), True
        v = w * (1.0 + math.exp(tj * lh) if nh and odd else -math.expm1(tj * lh))
        if v < 1.0:
            lsh, nsh = math.log1p(-v), False
        else:
            lsh, nsh = (math.log(v - 1.0) if v > 1.0 else -math.inf), True
        # cos^k(x) s^m(x) for the mean and for the pair and single-particle terms of P
        # (x = mu) and Q (x = mu / 2); k1 = 2 J_l - 1 is odd where 2 J_l is even,
        # k2 = 4 J_l - 2 is even and k3 = 2 J_l - 2 is odd where 2 J_l is odd
        lsh1 = n1 * lsh if n1 > 0 else 0.0
        x = (k1 * lh if k1 > 0 else 0.0) + lsh1
        mean += jw * (-math.exp(x) if (nh and not odd) != (nsh and odd1) else math.exp(x))
        x = (k2 * lc if k2 > 0 else 0.0) + (n2 * ls if n2 > 0 else 0.0)
        p += jw_pair * (1.0 + math.exp(x) if ns and odd2 else -math.expm1(x))
        x = (k3 * lc if k3 > 0 else 0.0) + (n1 * ls if n1 > 0 else 0.0)
        p += jw_single * (1.0 + math.exp(x) if (nc and odd) != (ns and odd1) else -math.expm1(x))
        x = (k2 * lh if k2 > 0 else 0.0) + (n2 * lsh if n2 > 0 else 0.0)
        q += jw_pair * (-math.exp(x) if nsh and odd2 else math.exp(x))
        x = (k3 * lh if k3 > 0 else 0.0) + lsh1
        q += jw_single * (-math.exp(x) if (nh and odd) != (nsh and odd1) else math.exp(x))
    f = spec.decomposition.f
    pref = 0.5 * f * f * spec.n
    return f * spec.n * mean, pref * spec.c_sum, 0.5 * pref * p, 2.0 * math.sin(0.5 * mu) * pref * q


def _var_min(base: float, p: float, q: float) -> float:
    """Minimum over nu of base + P (1 + cos 2 nu) - Q sin 2 nu: base + P - sqrt(P^2 + Q^2).

    For P > 0 it is written base - Q^2 / (P + sqrt(P^2 + Q^2)), where nothing
    cancels but the final subtraction.  Where Q^2 overflows (|Q| past about
    1.3e154, at N past about 1e115) the quotient is taken as
    Q (Q / (P + sqrt(P^2 + Q^2))), which does not; wherever Q^2 is finite
    the first form stands, so those floats do not depend on the second.
    """
    if p > 0.0:
        square = q * q
        if square == math.inf:
            return base - q * (q / (p + math.hypot(p, q)))
        return base - square / (p + math.hypot(p, q))
    return base + p - math.hypot(p, q)


def _extrema(base: float, p: float, q: float) -> tuple[float, float, float]:
    """(var_min, var_max, nu_min) of base + P (1 + cos 2 nu) - Q sin 2 nu over nu.

    The extrema are base + P -+ sqrt(P^2 + Q^2), the minimum from `_var_min`.
    It sits at nu = atan2(Q, -P) / 2, reported in [0, pi); when P = Q = 0
    (isotropic, e.g. mu = 0) the returned angle is an arbitrary 0.
    """
    amp = math.hypot(p, q)
    nu_min = 0.0 if amp == 0.0 else (0.5 * math.atan2(q, -p)) % math.pi
    return _var_min(base, p, q), base + p + amp, nu_min


def _xi2(spec: EnsembleSpec, mean: float, var_min: float) -> float:
    """xi^2 = 2 N sum(J_l |zeta_l|^2) var_min / <O_perp>^2; inf where the mean has collapsed.

    The one rule for when xi^2 is defined: the per-mu record, the limit
    search, the oracle and the oracle comparison all read it.  A mean at or
    below XI2_MEAN_GUARD of its coherent value counts as collapsed: there
    xi^2 grows as 1 / <O_perp>^2 and the float kernel reads anything from 0
    to the true value.  The bound, `EnsembleSpec.mean_guard`, is inclusive,
    so an ensemble with all its weight on singlets (c_sum = 0) reads inf
    instead of dividing by zero.  A mean above the bound whose square is not
    a finite normal float is refused with InvalidInput: below about 1.5e-154
    (weights near 1e-300 on the spinful blocks) the square has lost its
    precision or underflowed to 0, and above about 1.3e154 (N past 1e154) it
    is inf.
    """
    if abs(mean) <= spec.mean_guard:
        return math.inf
    square = mean * mean
    if not sys.float_info.min <= square < math.inf:
        raise InvalidInput(f"the mean spin {mean!r} is out of range for xi^2: its square is {square!r}")
    return 2.0 * spec.n * spec.c_sum * var_min / square


def _trace(spec: EnsembleSpec, mu: float, mean: float, base: float, p: float, q: float) -> SqueezeTrace:
    """The record at mu from the mean and the variance's (base, P, Q)."""
    var_min, var_max, nu_min = _extrema(base, p, q)
    return SqueezeTrace(mu, mean, var_min, var_max, nu_min, _xi2(spec, mean, var_min))


def squeeze_trace(spec: EnsembleSpec, mu: float) -> SqueezeTrace:
    """Full transverse record at one mu; xi2 = inf where the mean has collapsed (see `_xi2`)."""
    _check_oat(spec, mu)
    return _trace(spec, mu, *_moments(spec, mu))


def _brent(xi2, a: float, b: float, window: tuple[float, float] | None = None) -> tuple[float, float, int]:
    """Brent's bounded minimum of xi2 on [a, b], 0 < a < b: (mu, xi2, evaluations).

    The algorithm of scipy's fminbound: each step is the vertex of the
    parabola through the three best points so far when it falls inside the
    bracket and moves less than half the step before last, and a golden
    section of the larger side otherwise.  It stops once the best point lies
    within GOLDEN_REL_TOL of its own mu from both bracket ends.  An inf value
    (a skipped mu) never enters a parabola: the step falls back to golden.
    With a window (lo, hi) it also stops, on its best point so far, once the
    bracket lies at or below lo or at or above hi: the best point always
    lies in the bracket, so the minimum it would reach is outside the
    window too.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    x = a + golden * (b - a)
    fx = xi2(x)
    w, fw, v, fv = x, fx, x, fx  # second and third best points
    step = last = 0.0  # Brent's d and e: the latest step and the one before it
    evaluations = 1
    stop_lo, stop_hi = window or (-math.inf, math.inf)
    while True:
        if b <= stop_lo or a >= stop_hi:
            return x, fx, evaluations
        mid = 0.5 * (a + b)
        tol = 0.5 * GOLDEN_REL_TOL * x
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx, evaluations
        parabolic = False
        if abs(last) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            last, prev = step, last
            if abs(p) < abs(0.5 * q * prev) and q * (a - x) < p < q * (b - x):
                step = p / q
                if x + step - a < 2.0 * tol or b - x - step < 2.0 * tol:
                    step = tol if mid >= x else -tol
                parabolic = True
        if not parabolic:
            last = (a - x) if x >= mid else (b - x)
            step = golden * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = xi2(u)
        evaluations += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def find_limit(spec: EnsembleSpec) -> LimitResult:
    """Minimize xi^2 over mu in (0, 2 pi]: Brent's method from the one-block law, or one linear grid.

    With c_l = J_l |zeta_l|^2 N over the active blocks, the search first
    tries the one-axis-twisting law at the largest c_l, mu* = 12^(1/6)
    c_max^(-2/3) (`_r1_law`, the law of `asymptotic_limit_r1` with J N
    replaced by c_max): Brent's method alone on [_LAW_LO mu*, _LAW_HI mu*].
    The result stands when the minimum lies more than _LAW_EDGE of the
    bracket width in from both ends and xi^2 is finite and below 1; Brent's
    run ends early once its bracket has closed on one of those edge strips,
    where no result stands.  The law is tried only when _LAW_HI mu* <= pi / 2
    (c_max of about 1.24 or more); a bracket reaching further can hold the
    revival near 2 pi and settle on its dip.  A one-block ensemble sits on
    the law, with mu_min at or just below mu*; with more blocks mu_min / mu*
    measured 0.409 to 1.124, hence the asymmetric bracket.

    Otherwise xi^2 is read on 4 J_max N + 1 equally spaced mu, at most
    GRID_POINTS, over (0, 2 pi], or over (0, _LAW_HI mu*] when the law ran
    and its result did not stand, and every local minimum of the grid (a
    finite value below the one before it and no larger than the one after
    it, so a flat run counts once) is refined by `_brent` between its
    neighbours; the smallest refined value is the limit.  A grid that stops
    short of 2 pi and reads its lowest value at its last point steps on past
    it, doubling the step, until xi^2 rises or mu reaches 2 pi, and refines
    there: the law's run can end on its upper edge with the minimum beyond
    it.  The moments are trigonometric polynomials in mu / 2 of degree at
    most 4 J_max N, so 4 J_max N + 1 points is about their Nyquist rate.
    That bounds no dip of xi^2, a ratio with a square root, so the coverage
    is measured, not guaranteed: on 4000 draws with 4 J_max N <= 64 (2000 of
    them above 36) the grid alone missed the lowest dip of a 4000-point
    reference on none, at 4 J_max N + 1 points and at 2 J_max N + 1.
    Every mu where `_xi2` finds the mean collapsed reads xi^2 = inf, so
    Brent's parabolic steps never home in on the float noise there; a
    minimum beside such a point is refined towards the guard all the same.
    `iterations` counts the evaluations of every search.  A search that
    never sees xi^2 < 1 reports status "no_squeezing" instead of raising.
    Before any evaluation it refuses a J_l |zeta_l|^2 N that overflows
    (NonFiniteInput) or underflows to 0 (InvalidInput).  It refuses with
    InvalidInput an "ok" minimum at or below _XI2_FLOOR = 1e-12, reached
    past N of about 1e17 on the locus, where the kernel's rounding of a few
    1e-16 is more than 1e-3 of xi^2; `_xi2` refuses a mean whose square
    leaves the normal float range.
    """
    if spec.c_sum <= 0.0:
        raise VanishingMeanSpin("no weight on nontrivial subspaces")
    _check_start(spec)  # every mu below is finite and >= 0 by construction

    def xi2(mu: float) -> float:
        mean, base, p, q = _moments(spec, mu)
        return _xi2(spec, mean, _var_min(base, p, q))

    c = [jl * w * spec.n for jl, _, w in spec.active_blocks]
    if math.isinf(max(c)):
        raise NonFiniteInput(f"J_l |zeta_l|^2 N overflows the float range at N = {spec.n}")
    if min(c) == 0.0:  # a weight near the smallest subnormal: c_max^(-2/3) would divide by zero
        raise InvalidInput(f"J_l |zeta_l|^2 N underflows to 0 at N = {spec.n}, weights {spec.coherent.weights!r}")

    evaluations, mu_hi = 0, MU_MAX
    mu_star = _r1_law(max(c))[1]
    if _LAW_HI * mu_star <= 0.5 * math.pi:  # the bracket stays clear of the revival near 2 pi
        lo, hi = _LAW_LO * mu_star, _LAW_HI * mu_star
        edge = _LAW_EDGE * (hi - lo)
        mu_min, xi2_min, evaluations = _brent(xi2, lo, hi, (lo + edge, hi - edge))
        if lo + edge < mu_min < hi - edge and xi2_min < 1.0:  # also refuses inf and NaN
            return _resolved(spec, LimitResult(xi2_min, mu_min, evaluations, "ok"))
        mu_hi = hi

    # the blocks' tuples compare by J_l first, so max(...)[0] is J_max
    points = int(min(GRID_POINTS, 4.0 * max(spec.active_blocks)[0] * spec.n + 1.0))
    grid = [mu_hi * (k / points) for k in range(1, points + 1)]  # the last point is mu_hi exactly
    values = [xi2(mu) for mu in grid]
    evaluations += points
    best = (math.inf, math.nan)
    for k, v in enumerate(values):
        if not math.isfinite(v) or (k > 0 and values[k - 1] <= v) or (k < points - 1 and values[k + 1] < v):
            continue
        lo = grid[k - 1] if k > 0 else 1e-3 * grid[0]
        hi, step = grid[min(k + 1, points - 1)], grid[0]
        while k == points - 1 and hi < MU_MAX:  # past a grid short of 2 pi, until xi^2 rises
            mu = min(hi + step, MU_MAX)
            x = xi2(mu)
            evaluations += 1
            if not x < v:
                hi = mu
                break
            lo, hi, v, step = hi, mu, x, 2.0 * step
        mu, x, refined = _brent(xi2, lo, hi)
        evaluations += refined
        best = min(best, (x, mu))
    xi2_min, mu_min = best
    status = "ok" if xi2_min < 1.0 else "no_squeezing"
    return _resolved(spec, LimitResult(xi2_min, mu_min, evaluations, status))


def _resolved(spec: EnsembleSpec, res: LimitResult) -> LimitResult:
    """res, unless its status is "ok" with xi^2_min at or below _XI2_FLOOR (or NaN): InvalidInput then."""
    if res.status == "ok" and not res.xi2_min > _XI2_FLOOR:
        raise InvalidInput(
            f"xi^2_min reads {res.xi2_min!r} at N = {spec.n}, below the {_XI2_FLOOR:g} the float kernel "
            "resolves: N is too large"
        )
    return res


def _r1_law(jn: float) -> tuple[float, float]:
    """(xi^2_min, mu_min) of the one-block law at J N: (3 / (2 J N))^(2/3) / 2 + 1 / (2 J N), 12^(1/6) (J N)^(-2/3)."""
    return 0.5 * (1.5 / jn) ** (2.0 / 3.0) + 0.5 / jn, 12.0 ** (1.0 / 6.0) * jn ** (-2.0 / 3.0)


@dataclass(frozen=True)
class R1Limit:
    """Asymptotic one-subspace squeezing limit."""

    xi2: float
    mu: float


def asymptotic_limit_r1(twice_j_sub: int, n: int) -> R1Limit:
    """Closed-form squeezing limit when all weight sits on one subspace.

    xi^2_min = (3 / (2 J N))^(2/3) / 2 + 1 / (2 J N) at
    mu_min = 12^(1/6) (J N)^(-2/3).
    """
    twice_j_sub, n = _exact_int(twice_j_sub, "2J_l"), _exact_int(n, "particle count")
    if twice_j_sub < 1:
        raise InvalidInput(f"the weighted subspace must have J_l > 0, got 2J_l = {twice_j_sub}")
    if n < 2:
        raise InvalidInput(f"asymptotics need N >= 2, got {n}")
    return R1Limit(*_r1_law((twice_j_sub / 2.0) * n))
