import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import (
    CoherentSpec,
    EnsembleSpec,
    IrrepDecomposition,
    SpinQuantum,
    asymptotic_limit_r1,
    css_expectation_perp,
    css_fluctuation,
    enumerate_classes,
    find_limit,
    oat_spec,
    squeeze_trace,
)
from spinsqueeze import coherent_dynamics
from spinsqueeze.coherent_dynamics import (
    GOLDEN_REL_TOL,
    GRID_POINTS,
    MU_MAX,
    XI2_MEAN_GUARD,
    _LAW_EDGE,
    _LAW_HI,
    _LAW_LO,
    _brent,
    _moments,
    _r1_law,
    _var_min,
    _xi2,
)
from spinsqueeze.cli import main
from spinsqueeze.errors import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteInput,
    NormalizationError,
    NotOatStart,
    VanishingMeanSpin,
)

from observables import dense_limit_reference, moments_reference, sweep_limit_reference, type_iii_reference

J32 = SpinQuantum(3)
DEC_I = IrrepDecomposition(J32, (3,))
DEC_II = IrrepDecomposition(J32, (2, 0))
DEC_III = IrrepDecomposition(J32, (1, 1))
DEC_IV = IrrepDecomposition(J32, (1, 0, 0))
MULTI_BLOCK_CLASSES = [
    d for tj in range(1, 10) for d in enumerate_classes(SpinQuantum(tj)) if sum(t > 0 for t in d.twice_subspins) >= 2
]


def r1_xi2_series(twice_j_sub: int, n: int, mu: float) -> float:
    """Second-order small-time expansion of xi^2 for a single weighted subspace.

    Uses alpha = J N mu / 2 and beta = J N mu^2 / 4; valid for alpha >> 1 and
    beta << 1.
    """
    jn = (twice_j_sub / 2.0) * n
    alpha = 0.5 * jn * mu
    beta = 0.25 * jn * mu * mu
    return 1.0 / (4.0 * alpha * alpha) + (2.0 / 3.0) * beta * beta + beta / (2.0 * alpha * alpha)


def quadrature_variance(spec, mu: float, nu: float) -> float:
    """<(Delta O_nu)^2>(mu) = base + P (1 + cos 2 nu) - Q sin 2 nu from the kernel's moments."""
    _, base, p, q = _moments(spec, mu)
    return base + p * (1.0 + math.cos(2 * nu)) - q * math.sin(2 * nu)


def test_spec_validation():
    with pytest.raises(NormalizationError):
        CoherentSpec(0.0, 0.0, (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        EnsembleSpec(4, DEC_II, CoherentSpec(0.0, 0.0, (1.0,)))
    with pytest.raises(ValueError):
        EnsembleSpec(0, DEC_I, CoherentSpec(0.0, 0.0, (1.0,)))


def test_ensemble_derives_its_active_blocks_once():
    """The derived fields stay out of equality, hash and repr, and follow every new spec."""
    dec = IrrepDecomposition(SpinQuantum(5), (2, 1, 0))
    spec = oat_spec(dec, 10**6, (0.6, 0.0, 0.8j))
    same = oat_spec(dec, 10**6, (0.6, 0.0, 0.8j))
    assert spec == same and hash(spec) == hash(same)
    assert repr(spec) == (
        "EnsembleSpec(n=1000000, decomposition=IrrepDecomposition(j=SpinQuantum(twice_j=5), "
        "twice_subspins=(2, 1, 0)), coherent=CoherentSpec(theta=1.5707963267948966, phi=0.0, "
        "zeta=((0.6+0j), 0j, 0.8j)))"
    )
    # 2J_l = 1 has no weight and 2J_l = 0 no spin, so one block is active
    w = spec.coherent.weights[0]
    assert spec.active_blocks == ((1.0, 2, w),) and spec.c_sum == w
    assert spec.kernel_blocks == ((2, w, 1, 2, 0, False, w, w * (999999 * w), w * 0.5),)
    assert "kernel_blocks" not in repr(spec)
    fewer = dataclasses.replace(spec, n=7)
    assert fewer.n == 7 and fewer.active_blocks == spec.active_blocks and fewer != spec
    assert fewer.kernel_blocks == ((2, w, 1, 2, 0, False, w, w * (6 * w), w * 0.5),)
    moved = dataclasses.replace(spec, coherent=CoherentSpec(math.pi / 2, 0.0, (0.0, 0.6, 0.8)))
    w = moved.coherent.weights[1]
    assert moved.active_blocks == ((0.5, 1, w),) and moved.c_sum == 0.5 * w
    assert moved.kernel_blocks == ((1, w, 0, 0, -1, True, 0.5 * w, 0.5 * w * (0.5 * 999999 * w), 0.0),)

    rng = np.random.default_rng(3)
    for twice_j in (3, 5, 7):
        for dec in enumerate_classes(SpinQuantum(twice_j)):
            for _ in range(20):
                spec = oat_spec(dec, 10, tuple(np.sqrt(rng.dirichlet(np.ones(dec.r)))))
                assert [b[1] for b in spec.active_blocks] == [t for t in dec.twice_subspins if t > 0]
                ref = math.fsum(t / 2 * x for t, x in zip(dec.twice_subspins, spec.coherent.weights))
                assert abs(spec.c_sum - ref) <= math.ulp(ref), (dec, spec.c_sum, ref)


@pytest.mark.parametrize("zeta", [(1e200, 1e200), (1e200j,), (complex(1e308, 1e308),)])
def test_weights_whose_squares_overflow_are_not_normalized(zeta):
    with pytest.raises(NormalizationError, match="inf"):
        CoherentSpec(0.0, 0.0, zeta)


@pytest.mark.parametrize(
    "theta,phi,zeta",
    [
        (math.nan, 0.0, (1.0,)),
        (math.pi / 2, math.inf, (1.0,)),
        (math.pi / 2, 0.0, (math.nan,)),  # sum |zeta|^2 = nan passes the norm test
        (math.pi / 2, 0.0, (complex(0.6, math.nan), 0.8)),
        (math.pi / 2, 0.0, (math.inf, 0.0)),
    ],
)
def test_spec_rejects_non_finite_input(theta, phi, zeta):
    with pytest.raises(NonFiniteInput):
        CoherentSpec(theta, phi, zeta)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: oat_spec(DEC_I, 10, 1.0), "zeta"),
        (lambda: CoherentSpec(math.pi / 2, 0.0, ("x",)), "zeta"),
        (lambda: CoherentSpec(math.pi / 2, 0.0, None), "zeta"),
        (lambda: CoherentSpec("a", 0.0, (1.0,)), "theta"),
        (lambda: CoherentSpec(math.pi / 2, 1j, (1.0,)), "phi"),
        (lambda: oat_spec(DEC_III, 10, "10"), "zeta"),  # not the weights (1, 0)
        (lambda: oat_spec(DEC_III, 10, b"10"), "zeta"),
    ],
    ids=["scalar_zeta", "string_weight", "no_weights", "string_theta", "complex_phi", "text_zeta", "bytes_zeta"],
)
def test_spec_refuses_malformed_parameters(make, name):
    with pytest.raises(InvalidInput, match=f"^{name} must be"):
        make()


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_squeeze_trace_rejects_non_finite_mu(mu):
    with pytest.raises(NonFiniteInput, match="mu must be finite"):
        squeeze_trace(oat_spec(DEC_III, 10, (0.6, 0.8)), mu)


def test_squeeze_trace_rejects_negative_mu():
    with pytest.raises(InvalidInput, match="got -0.5"):
        squeeze_trace(oat_spec(DEC_I, 10, (1,)), -0.5)


def test_find_limit_refuses_an_off_axis_start_before_evaluating(monkeypatch):
    """The limit search checks the start once; the mu it makes need no check."""
    calls = []
    monkeypatch.setattr(coherent_dynamics, "_moments", lambda spec, mu: calls.append(mu))
    for theta, phi in ((math.pi / 2 + 1e-9, 0.0), (math.pi / 2, -1e-9), (0.3, 0.5)):
        spec = EnsembleSpec(100, DEC_III, CoherentSpec(theta, phi, (0.6, 0.8)))
        with pytest.raises(NotOatStart, match="theta = pi/2, phi = 0"):
            find_limit(spec)
    assert calls == []


def test_moments_equal_the_per_helper_reference():
    """The flat pass returns the very floats of the per-helper kernel it replaced, signed zeros too.

    2J <= 9, N in {1, 2, 3} or log-uniform to 1e9, weights with zeroed blocks;
    mu at 0, pi, 2 pi and 3 pi, on both sides of each sign change of cos(mu)
    and cos(mu / 2) up to 4 pi, and random in [0, 4 pi] and near the limit.
    """
    classes = [d for tj in range(1, 10) for d in enumerate_classes(SpinQuantum(tj))]
    flips = [k * math.pi / 2 for k in (1, 2, 3, 5, 6, 7)]  # zeros of cos(mu) and of cos(mu / 2)
    sides = [y for z in flips for y in (math.nextafter(z, 0.0), math.nextafter(z, 4 * math.pi), z * (1 - 1e-9),
                                         z * (1 + 1e-9))]
    rng = np.random.default_rng(11)
    draws = 0
    while draws < 400:
        n = draws % 4 + 1  # a quarter of the draws each at N = 1, 2 and 3
        spec = _random_spec(rng, classes, *((n, n) if n < 4 else (1, 1e9)), zero_prob=0.3)
        if spec is None:
            continue
        draws += 1
        limit = 1.5 * (spec.c_sum * spec.n) ** (-2.0 / 3.0)
        mus = [0.0, math.pi, 2 * math.pi, 3 * math.pi, *sides, *rng.uniform(0.0, 4 * math.pi, 4),
               *(limit * rng.uniform(0.1, 10.0, 4))]
        for mu in mus:
            got, want = _moments(spec, mu), moments_reference(spec, mu)
            assert got == want, (spec, mu, got, want)
            assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want], (spec, mu)


def test_css_expectation_values():
    assert css_expectation_perp(oat_spec(DEC_I, 4, (1,))) == pytest.approx(6.0, abs=1e-12)
    spec_ii = oat_spec(DEC_II, 10, (1, 0))
    assert css_expectation_perp(spec_ii) == pytest.approx(10 * math.sqrt(2.5), abs=1e-12)
    # all weight on trivial subspaces: zero mean spin
    assert css_expectation_perp(oat_spec(DEC_IV, 5, (0, 1, 0))) == 0.0


def test_css_fluctuation_values():
    spec = oat_spec(DEC_I, 4, (1,))
    assert css_fluctuation(spec) == pytest.approx(3.0, abs=1e-12)
    spec3 = oat_spec(DEC_III, 6, (1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert css_fluctuation(spec3) == pytest.approx(7.5, abs=1e-12)


def test_css_minimum_uncertainty_identity():
    """var(nu) var(nu+pi/2) = (f^2/4) <O_perp>^2 at mu = 0."""
    for dec, zeta in [(DEC_I, (1,)), (DEC_III, (0.6, 0.8)), (DEC_IV, (0.9, 0.1, math.sqrt(1 - 0.82)))]:
        spec = oat_spec(dec, 7, zeta)
        perp = css_expectation_perp(spec)
        f = dec.f
        for nu in np.linspace(0, math.pi, 12, endpoint=False):
            product = quadrature_variance(spec, 0.0, nu) * quadrature_variance(spec, 0.0, nu + math.pi / 2)
            assert product == pytest.approx(0.25 * f * f * perp * perp, rel=1e-12)


def test_oat_expectation_reduces_to_css_at_zero():
    for dec, zeta in [(DEC_I, (1,)), (DEC_II, (0.8, 0.6)), (DEC_III, (0.6, 0.8j))]:
        spec = oat_spec(dec, 9, zeta)
        assert squeeze_trace(spec, 0.0).perp_expectation == pytest.approx(
            css_expectation_perp(spec), abs=1e-12
        )


def test_oat_expectation_vanishes_at_pi_for_full_chain():
    spec = oat_spec(DEC_I, 7, (1,))
    assert abs(squeeze_trace(spec, math.pi).perp_expectation) < 1e-30


def test_oat_fluctuation_reduces_to_css_at_zero():
    spec = oat_spec(DEC_II, 8, (0.8, 0.6))
    for nu in (0.0, 0.7, 2.2):
        assert quadrature_variance(spec, 0.0, nu) == pytest.approx(css_fluctuation(spec), abs=1e-12)


def test_oat_fluctuation_single_subspace_closed_form():
    """For one weighted subspace the variance collapses to the J_l0 N form."""

    def closed(jn, f, mu, nu):
        return (f * f * jn / 2.0) * (
            1.0
            + 0.5
            * (jn - 0.5)
            * (
                (1.0 - math.cos(mu) ** int(2 * (jn - 1))) * (1.0 + math.cos(2 * nu))
                - 4.0 * math.sin(mu / 2.0) * math.cos(mu / 2.0) ** int(2 * (jn - 1)) * math.sin(2 * nu)
            )
        )

    for dec, n in [(DEC_I, 5), (DEC_I, 2), (DEC_II, 4)]:
        spec = oat_spec(dec, n, (1,) + (0,) * (dec.r - 1))
        jn = dec.twice_subspins[0] / 2.0 * n
        for mu in np.linspace(0.0, math.pi, 17):
            for nu in (0.0, 0.4, 1.1, 2.0, 3.0):
                a = quadrature_variance(spec, float(mu), nu)
                b = closed(jn, dec.f, float(mu), nu)
                assert abs(a - b) < 1e-10


def test_min_fluctuation_bounds_grid():
    rng = np.random.default_rng(7)
    for dec in (DEC_I, DEC_II, DEC_III, DEC_IV):
        w = rng.dirichlet(np.ones(dec.r))
        spec = oat_spec(dec, 6, tuple(np.sqrt(w)))
        for mu in (0.0, 0.35, 1.1, 2.6):
            trace = squeeze_trace(spec, mu)
            grid = [quadrature_variance(spec, mu, nu) for nu in np.linspace(0, math.pi, 360, endpoint=False)]
            assert trace.var_min <= min(grid) + 1e-10
            assert trace.var_max >= max(grid) - 1e-10
            assert quadrature_variance(spec, mu, trace.nu_min) == pytest.approx(trace.var_min, abs=1e-9)
            assert 0.0 <= trace.nu_min < math.pi


def test_min_fluctuation_isotropic_at_zero():
    spec = oat_spec(DEC_III, 5, (0.6, 0.8))
    trace = squeeze_trace(spec, 0.0)
    assert trace.var_min == pytest.approx(trace.var_max, abs=1e-12)
    assert trace.var_min == pytest.approx(css_fluctuation(spec), abs=1e-12)


def test_min_fluctuation_nu_asymptotic_angle():
    """nu_min approaches pi/2 - arctan(1/alpha)/2 for alpha >> 1, beta << 1."""
    n, mu = 10**6, 2e-4
    spec = oat_spec(DEC_I, n, (1,))
    alpha = 0.5 * 1.5 * n * mu
    nu_min = squeeze_trace(spec, mu).nu_min
    assert abs(nu_min - (math.pi / 2 - 0.5 * math.atan(1.0 / alpha))) < 1e-3


def test_squeezing_parameter_unity_at_zero():
    for dec, zeta in [(DEC_I, (1,)), (DEC_II, (0.6, 0.8)), (DEC_III, (1, 0)), (DEC_IV, (0.8, 0.6, 0))]:
        spec = oat_spec(dec, 11, zeta)
        assert squeeze_trace(spec, 0.0).xi2 == pytest.approx(1.0, abs=1e-10)


def test_squeezing_parameter_vanishing_mean():
    spec = oat_spec(DEC_I, 6, (1,))
    trace = squeeze_trace(spec, math.pi)
    assert trace.xi2 == math.inf
    assert trace.var_min <= trace.var_max


def test_find_limit_type_i_against_asymptotics():
    n = 10**5
    res = find_limit(oat_spec(DEC_I, n, (1,)))
    assert res.status == "ok"
    ref_xi = 0.5 * n ** (-2 / 3) + 1 / (3 * n)
    ref_mu = 2 / math.sqrt(3) * n ** (-2 / 3)
    assert abs(res.xi2_min / ref_xi - 1) < 0.05
    assert abs(res.mu_min / ref_mu - 1) < 0.05
    assert res.iterations > 0


def test_find_limit_no_squeezing_for_single_half_spin():
    dec = IrrepDecomposition(SpinQuantum(1), (1,))
    res = find_limit(oat_spec(dec, 1, (1,)))
    assert res.status == "no_squeezing"


def test_find_limit_stays_in_one_period_for_irreducible_class():
    """J_1 N = 15: an uncapped first sweep reaches 32.8 and lands on mu = 12.777."""
    res = find_limit(oat_spec(DEC_I, 10, (1,)))
    assert res.status == "ok"
    assert res.mu_min == pytest.approx(0.2109, abs=1e-3)
    assert res.xi2_min == pytest.approx(0.149612, rel=1e-5)


def test_find_limit_stays_in_one_period_for_small_n():
    res = find_limit(oat_spec(DEC_IV, 2, (1, 0, 0)))
    assert res.status == "ok"
    assert 0.0 < res.mu_min <= 2 * math.pi
    assert res.xi2_min == pytest.approx(0.5, rel=1e-5)


def test_find_limit_stays_in_one_period_for_a_light_block():
    """c_max N = 1e-4: the law's mu* = 702 lies far past 2 pi, so the grid spans (0, 2 pi]."""
    spec = oat_spec(DEC_IV, 2, (math.sqrt(1e-4), math.sqrt(1 - 1e-4), 0))
    res, ref = find_limit(spec), sweep_limit_reference(spec)
    assert 0.0 < res.mu_min <= 2 * math.pi
    assert res.xi2_min == pytest.approx(ref.xi2_min, rel=1e-9)


@pytest.mark.parametrize(
    "twice_j, twice_subspins, zeta",
    [
        (2, (1, 0), (1, 0)),  # limits --j 1 --class 1/2+0 --n 2 --zeta 1,0
        (3, (1, 1), (1, 0)),
        (7, (2, 2, 1), (0, 0, 1)),
    ],
)
def test_find_limit_skips_a_collapsed_mean(twice_j, twice_subspins, zeta):
    """N = 2, all weight on one J_l = 1/2 block: xi^2 -> 1/2 as mu -> pi, where the mean vanishes.

    Within 1e-6 of pi the float kernel reads anything from 0 to 1/2; `_xi2`
    reads inf at every mu whose mean is at or below XI2_MEAN_GUARD of its
    start, so the search never lands there.
    """
    res = find_limit(oat_spec(IrrepDecomposition(SpinQuantum(twice_j), twice_subspins), 2, zeta))
    assert res.status == "ok"
    assert abs(res.xi2_min - 0.5) <= 1e-8, res


@pytest.mark.parametrize(
    "fn, target, max_evaluations",
    [
        (lambda mu: (mu - 0.3) ** 2, 0.3, 8),  # parabolic steps land on it
        (lambda mu: abs(mu - 0.3), 0.3, 33),  # a kink: golden-section fallbacks
        (lambda mu: mu, 0.1, 33),  # the minimum on a bracket end
        (lambda mu: -mu, 0.7, 33),
    ],
)
def test_brent_refinement_on_known_functions(fn, target, max_evaluations):
    mu, value, evaluations = _brent(fn, 0.1, 0.7)
    assert abs(mu - target) <= GOLDEN_REL_TOL * 0.7
    assert value == fn(mu)
    assert evaluations <= max_evaluations


def test_find_limit_requires_active_weight():
    with pytest.raises(VanishingMeanSpin):
        find_limit(oat_spec(DEC_IV, 100, (0, 1, 0)))


def test_xi2_is_inf_with_all_weight_on_a_singlet():
    """c_sum = 0: the mean and its guard are both 0, and the inclusive bound reads inf."""
    assert squeeze_trace(oat_spec(DEC_II, 5, (0, 1)), 0.3).xi2 == math.inf


def test_mean_guard_is_the_share_of_the_coherent_mean():
    """`EnsembleSpec.mean_guard` is XI2_MEAN_GUARD of the coherent mean, to the last bit."""
    classes = [d for tj in range(1, 10) for d in enumerate_classes(SpinQuantum(tj))]
    rng = np.random.default_rng(17)
    for _ in range(500):
        spec = _random_spec(rng, classes, 1, 1e9, zero_prob=0.3)
        if spec is not None:
            assert spec.mean_guard == XI2_MEAN_GUARD * css_expectation_perp(spec), spec
    assert oat_spec(DEC_II, 5, (0, 1)).mean_guard == 0.0


def test_xi2_reads_inf_at_the_inclusive_bound():
    spec = oat_spec(DEC_III, 10, (0.6, 0.8))
    guard = spec.mean_guard
    assert guard > 0.0
    for mean in (guard, -guard, 0.5 * guard, 0.0):
        assert _xi2(spec, mean, 1.0) == math.inf
    above = math.nextafter(guard, math.inf)
    assert math.isfinite(_xi2(spec, above, 1.0)) and math.isfinite(_xi2(spec, -above, 1.0))


def _random_spec(rng, classes, n_lo, n_hi, zero_prob=0.0):
    """oat_spec of a random class, N log-uniform in [n_lo, n_hi] and Dirichlet weights.

    Each weight of a multi-block class is zeroed with probability zero_prob;
    None when that leaves no weight on a spinful block.
    """
    dec = classes[rng.integers(len(classes))]
    n = int(round(math.exp(rng.uniform(math.log(n_lo), math.log(n_hi)))))
    w = rng.dirichlet(np.ones(dec.r))
    if dec.r > 1:
        w[rng.random(dec.r) < zero_prob] = 0.0
    if not any(wl > 0.0 and tj > 0 for wl, tj in zip(w, dec.twice_subspins)):
        return None
    return oat_spec(dec, n, tuple(np.sqrt(w / w.sum())))


def _property_draws(count: int = 1000, seed: int = 2024) -> list[EnsembleSpec]:
    """The seeded limit draws: 2J <= 9, N log-uniform in [2, 1e9], Dirichlet weights with blocks zeroed."""
    classes = [d for tj in range(1, 10) for d in enumerate_classes(SpinQuantum(tj))]
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        spec = _random_spec(rng, classes, 2, 1e9, zero_prob=0.3)
        if spec is not None:
            draws.append(spec)
    return draws


DENSE_POINTS = 4000  # the grid of `dense_limit_reference`


def _dense_judges(spec) -> bool:
    """Whether 4 J_max N <= DENSE_POINTS, where `dense_limit_reference` missed no dip in any measured draw."""
    return 4.0 * max(jl for jl, _, _ in spec.active_blocks) * spec.n <= DENSE_POINTS


def _check_property_draws(seed: int) -> None:
    """`find_limit` against the references on the 1000 property draws of one numpy seed.

    Where 4 J_max N <= 4000 the judge is `dense_limit_reference`, which
    missed no dip there in any measured draw; above it the judge is the
    128-point sweep, whose log grid can miss the lower of two dips at small
    N.  Both searches stop on the kernel's rounding once the bracket is
    narrow, so xi^2 agrees to 1e-9 up to N = 1e8 and to 3e-9 above, where
    each evaluation carries about 5e-10 of noise (the worst pair measured
    over 12 000 draws read 3.8e-10 and 1.4e-9).  Every read goes through
    `_xi2`, and every draw is compared.  Where the dense reference keeps a
    grid value beside the collapsed-mean guard (a grid neighbour reads inf),
    that value lies up to 1.6e-7 above the infimum while the search refines
    into the guard; there the lower side is judged by the sweep, which
    refines into the guard too.  Each of the two reads carries the kernel's
    noise at the guard, a few 1e-9, so they may differ by 2e-8 (9.4e-9
    measured on seeds 0-7).
    """
    evaluations = []
    for spec in _property_draws(seed=seed):
        new = find_limit(spec)
        evaluations.append(new.iterations)
        tol = 1e-9 if spec.n <= 10**8 else 3e-9
        floor = None
        if _dense_judges(spec):
            ref, mu_ref = dense_limit_reference(spec, points=DENSE_POINTS)
            step = MU_MAX / DENSE_POINTS
            if any(squeeze_trace(spec, mu).xi2 == math.inf for mu in (mu_ref - step, mu_ref + step) if mu > 0.0):
                floor = sweep_limit_reference(spec).xi2_min * (1.0 - 2e-8)  # both reads refine into the guard
        else:
            ref = sweep_limit_reference(spec).xi2_min
        assert new.status == ("ok" if ref < 1.0 else "no_squeezing"), (spec, new, ref)
        if not math.isfinite(ref):
            assert new.xi2_min == math.inf, spec
            continue
        assert 0.0 < new.mu_min <= 2 * math.pi, spec
        # the search and the per-mu record read xi^2 through one formula
        assert squeeze_trace(spec, new.mu_min).xi2 == new.xi2_min, (spec, new)
        floor = ref * (1.0 - tol) if floor is None else floor
        assert floor <= new.xi2_min <= ref * (1.0 + tol), (spec, new, ref, floor)
    assert np.median(evaluations) <= 12  # Brent alone from the law at c_max; a log grid took 20


def test_find_limit_matches_the_sweep_it_replaced():
    _check_property_draws(2024)


def test_find_limit_keeps_the_two_dip_census_at_n_2():
    """N = 2, weights eps and 1 - eps on two spinful blocks: no read above the dense reference.

    At N = 2 the mean can cross zero between two xi^2 dips.  These are the
    first 500 draws of a 6000-draw census of that shape (numpy seed 99,
    every 2J <= 9 class with two or more spinful blocks, eps log-uniform in
    [1e-6, 0.5]).  The 24-point log grid that the linear grid replaced
    refined the higher dip on 27 of them.  4 J_max N <= 36 here, so the
    dense reference's 400 points sample xi^2 at more than ten times the
    search grid's rate.
    """
    rng = np.random.default_rng(99)
    above = []
    for _ in range(500):
        dec = MULTI_BLOCK_CLASSES[rng.integers(len(MULTI_BLOCK_CLASSES))]
        a, b = rng.choice([k for k, t in enumerate(dec.twice_subspins) if t > 0], 2, replace=False)
        eps = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
        w = [0.0] * dec.r
        w[a], w[b] = eps, 1.0 - eps
        spec = oat_spec(dec, 2, tuple(math.sqrt(x) for x in w))
        new, (ref, _) = find_limit(spec), dense_limit_reference(spec, points=400)
        assert new.status == ("ok" if ref < 1.0 else "no_squeezing"), spec
        if new.xi2_min > ref * (1.0 + 1e-9):
            above.append((spec, new, ref))
    assert above == []


def test_find_limit_reads_the_lower_dip_of_the_census_case():
    """2J = 5, class (2, 1, 0), eps = 3.8857e-4 at N = 2: the log grid read the dip at mu = 3.6254, 0.516032."""
    eps = 3.8857e-4
    spec = oat_spec(IrrepDecomposition(SpinQuantum(5), (2, 1, 0)), 2, (math.sqrt(eps), math.sqrt(1 - eps), 0.0))
    res = find_limit(spec)
    assert res.status == "ok"
    assert res.xi2_min == pytest.approx(0.5125999203778, rel=1e-9) and res.mu_min == pytest.approx(2.6856, abs=1e-4)
    assert res.xi2_min <= dense_limit_reference(spec)[0] * (1.0 + 1e-9)


def test_find_limit_never_widens_in_the_benchmark_range():
    """2J in {3, 5}, N in [400, 1e6]: the law's bracket settles every call, so the grid never runs."""
    classes = enumerate_classes(SpinQuantum(3)) + enumerate_classes(SpinQuantum(5))
    rng = np.random.default_rng(7)
    for _ in range(300):
        spec = _random_spec(rng, classes, 400, 1e6)
        res = find_limit(spec)
        assert _law_seeds(spec) and res.status == "ok" and res.iterations < GRID_POINTS, (spec, res)


def _single_block_spec(rng, n_lo, n_hi):
    """oat_spec of one spinful block, 2J_l in 1..9, beside 0-2 singlets, N log-uniform in [n_lo, n_hi].

    With singlets the block takes w log-uniform in [1e-4, 1] and the first
    singlet the rest.
    """
    twice_jl, singlets = int(rng.integers(1, 10)), int(rng.integers(0, 3))
    dec = IrrepDecomposition(SpinQuantum(twice_jl + singlets), (twice_jl,) + (0,) * singlets)
    w = math.exp(rng.uniform(math.log(1e-4), 0.0)) if singlets else 1.0
    n = int(round(math.exp(rng.uniform(math.log(n_lo), math.log(n_hi)))))
    return oat_spec(dec, n, (math.sqrt(w), math.sqrt(1.0 - w), 0.0)[: 1 + singlets])


def _law_seeds(spec) -> bool:
    """Whether the search starts from the one-block law: 1.2 mu* <= pi / 2, mu* that of the largest J_l w_l N."""
    c_max = max(jl * w * spec.n for jl, _, w in spec.active_blocks)
    return 1.2 * _r1_law(c_max)[1] <= 0.5 * math.pi


def _multi_block_spec(rng, n_lo, n_hi, eps):
    """oat_spec of a class with two or more spinful blocks (2J <= 9), N log-uniform in [n_lo, n_hi].

    Dirichlet weights over all blocks, or with eps the weights eps and
    1 - eps on two spinful blocks, eps log-uniform in [1e-4, 0.5].
    """
    dec = MULTI_BLOCK_CLASSES[rng.integers(len(MULTI_BLOCK_CLASSES))]
    n = int(round(math.exp(rng.uniform(math.log(n_lo), math.log(n_hi)))))
    if eps:
        a, b = rng.choice([k for k, t in enumerate(dec.twice_subspins) if t > 0], 2, replace=False)
        w = np.zeros(dec.r)
        w[a] = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        w[b] = 1.0 - w[a]
    else:
        w = rng.dirichlet(np.ones(dec.r))
    return oat_spec(dec, n, tuple(np.sqrt(w / w.sum())))


def test_law_seeded_limits_match_the_dense_and_sweep_references():
    """Single-block draws at N in [2, 2000] read no xi^2 above either reference by more than 1e-9.

    The dense reference (4000 linear points over (0, 2 pi], every local
    minimum refined) sees every dip at these N, so a seeded bracket or a
    grid that settled on a wrong dip would read above it.  Every draw is
    checked, whether the law seeds it or the linear grid runs.
    """
    rng = np.random.default_rng(5)
    seeded = 0
    for _ in range(150):
        spec = _single_block_spec(rng, 2, 2000)
        seeded += _law_seeds(spec)
        res, sweep = find_limit(spec), sweep_limit_reference(spec)
        dense_xi2, _ = dense_limit_reference(spec)
        assert res.status == sweep.status == "ok", (spec, res, sweep)
        assert res.xi2_min <= min(sweep.xi2_min, dense_xi2) * (1.0 + 1e-9), (spec, res, sweep, dense_xi2)
    assert seeded >= 80, seeded


def test_law_seeded_limits_match_the_sweep_up_to_1e9():
    """Single-block draws at N in [2, 1e9]: within 1e-9 of the 128-point sweep, 3e-9 above N = 1e8."""
    rng = np.random.default_rng(6)
    seeded = 0
    for _ in range(300):
        spec = _single_block_spec(rng, 2, 1e9)
        res, ref = find_limit(spec), sweep_limit_reference(spec)
        assert res.status == ref.status, (spec, res, ref)
        seeded += _law_seeds(spec)
        if res.status == "ok":
            tol = 1e-9 if spec.n <= 10**8 else 3e-9
            assert abs(res.xi2_min - ref.xi2_min) <= tol * ref.xi2_min, (spec, res, ref)
            assert res.xi2_min <= ref.xi2_min * (1.0 + tol), (spec, res, ref)
    assert seeded >= 200, seeded


def test_law_seeded_limits_take_a_median_of_at_most_10_evaluations():
    """Single-block draws at N in [400, 1e6]: Brent alone on [0.4 mu*, 1.2 mu*] in the median case."""
    rng = np.random.default_rng(8)
    evaluations = [find_limit(_single_block_spec(rng, 400, 1e6)).iterations for _ in range(300)]
    assert np.median(evaluations) <= 10, sorted(evaluations)


def test_law_seed_stays_off_the_revival():
    """(5, 0, 0) at N = 22, w = 0.0016: 1.2 mu* > pi / 2, so the linear grid over (0, 2 pi] runs.

    The law's bracket around mu* = 7.65, capped at 2 pi, holds the revival,
    where Brent finds a dip of 0.685 at mu = 5.77, well inside the bracket;
    the minimum is 0.467 at mu = 0.579.
    """
    spec = oat_spec(IrrepDecomposition(SpinQuantum(7), (5, 0, 0)), 22, (0.04, math.sqrt(1 - 0.0016), 0.0))
    assert not _law_seeds(spec)

    def xi2(mu):
        mean, base, p, q = _moments(spec, mu)
        return _xi2(spec, mean, _var_min(base, p, q))

    mu_star = _r1_law(2.5 * 0.0016 * 22)[1]
    lo, hi = _LAW_LO * mu_star, min(_LAW_HI * mu_star, MU_MAX)
    mu, value, _ = _brent(xi2, lo, hi)
    assert value == pytest.approx(0.685, abs=1e-3) and mu == pytest.approx(5.77, abs=1e-2)
    assert lo + _LAW_EDGE * (hi - lo) < mu < hi - _LAW_EDGE * (hi - lo)
    res, ref = find_limit(spec), sweep_limit_reference(spec)
    assert res.xi2_min == pytest.approx(0.467, abs=1e-3) and res.mu_min == pytest.approx(0.579, abs=1e-3)
    assert res.xi2_min <= ref.xi2_min * (1.0 + 1e-9)


def test_grid_steps_past_its_end_when_the_law_ends_on_its_upper_edge(monkeypatch):
    """{3/2} at N = 1e4 with the law's bracket cut to [0.4 mu*, 0.9 mu*]: the minimum near mu* lies beyond it.

    No measured draw ends the law's run on its upper edge, so _LAW_HI is
    lowered to make one.  The grid over (0, 0.9 mu*] then reads its lowest
    value at its last point; refined there alone it read 3.3e-2 above the
    sweep, and stepping on past it finds the sweep's limit.
    """
    spec = oat_spec(DEC_I, 10**4, (1,))
    mu_star = _r1_law(1.5 * 10**4)[1]
    monkeypatch.setattr(coherent_dynamics, "_LAW_HI", 0.9)
    res = find_limit(spec)
    assert res.status == "ok" and res.mu_min > 0.9 * mu_star, (res, mu_star)
    assert res.xi2_min == pytest.approx(sweep_limit_reference(spec).xi2_min, rel=1e-9)


def _brent_without_window(monkeypatch):
    """Make find_limit run every Brent search to convergence, as before the law bracket's early stop."""
    monkeypatch.setattr(coherent_dynamics, "_brent", lambda xi2, a, b, window=None: _brent(xi2, a, b))


def test_law_bracket_stops_once_it_closes_on_an_edge(monkeypatch):
    """(1, 1) at w_1 = 0.2 and N = 1e8: mu_min lies below 0.4 mu*, so the law's run walks to the lower edge.

    It ends there after 11 evaluations instead of 31, and the linear grid
    over (0, 1.2 mu*] finds the sweep's limit: 52 evaluations in all (11 on
    the bracket, GRID_POINTS = 32 on the grid, 9 to refine), against 72 when
    the run converges on the edge; the log grid it replaced took 32.
    """
    spec = oat_spec(DEC_III, 10**8, (math.sqrt(0.2), math.sqrt(0.8)))
    assert _law_seeds(spec)
    res = find_limit(spec)
    assert res.status == "ok" and res.iterations <= 54, res
    assert res.xi2_min == pytest.approx(sweep_limit_reference(spec).xi2_min, rel=1e-9)
    _brent_without_window(monkeypatch)
    full = find_limit(spec)
    assert full.iterations >= res.iterations + 15, (res, full)
    assert dataclasses.replace(full, iterations=res.iterations) == res


def test_law_bracket_early_stop_changes_only_the_iteration_count(monkeypatch):
    """On the 1000 property draws every LimitResult field but `iterations` is bit-identical to full runs."""
    draws = _property_draws()
    stopped = [find_limit(spec) for spec in draws]
    _brent_without_window(monkeypatch)
    fewer = 0
    for spec, res in zip(draws, stopped):
        full = find_limit(spec)
        assert res.iterations <= full.iterations, (spec, res, full)
        fewer += res.iterations < full.iterations
        for name in ("xi2_min", "mu_min", "status"):
            assert repr(getattr(res, name)) == repr(getattr(full, name)), (spec, name, res, full)  # float repr round-trips
    assert fewer >= 50, fewer  # 53 measured; the mean goes 13.89 -> 12.91 evaluations


def test_multi_block_limits_match_the_dense_and_sweep_references():
    """Multi-block draws at N in [2, 2000] read no xi^2 above either reference by more than 1e-9.

    Half the draws take Dirichlet weights, half eps and 1 - eps on two
    spinful blocks.  The dense reference sees every dip at these N, so a
    law bracket at c_max or a grid that settled on a wrong dip would read
    above it.  Every draw is checked, whether the law seeds it or the
    linear grid runs.
    """
    rng = np.random.default_rng(5)
    seeded = 0
    for draw in range(100):
        spec = _multi_block_spec(rng, 2, 2000, eps=draw % 2 == 1)
        seeded += _law_seeds(spec)
        res, sweep = find_limit(spec), sweep_limit_reference(spec)
        dense_xi2, _ = dense_limit_reference(spec)
        assert res.status == sweep.status == "ok", (spec, res, sweep)
        assert res.xi2_min <= min(sweep.xi2_min, dense_xi2) * (1.0 + 1e-9), (spec, res, sweep, dense_xi2)
    assert seeded >= 80, seeded


def test_multi_block_limits_match_the_sweep_up_to_1e9():
    """Multi-block draws at N in [2, 1e9]: within 1e-9 of the 128-point sweep, 3e-9 above N = 1e8."""
    rng = np.random.default_rng(6)
    seeded = 0
    for draw in range(300):
        spec = _multi_block_spec(rng, 2, 1e9, eps=draw % 2 == 1)
        res, ref = find_limit(spec), sweep_limit_reference(spec)
        assert res.status == ref.status, (spec, res, ref)
        seeded += _law_seeds(spec)
        if res.status == "ok":
            tol = 1e-9 if spec.n <= 10**8 else 3e-9
            assert abs(res.xi2_min - ref.xi2_min) <= tol * ref.xi2_min, (spec, res, ref)
            assert res.xi2_min <= ref.xi2_min * (1.0 + tol), (spec, res, ref)
    assert seeded >= 250, seeded


def test_multi_block_limits_take_a_median_of_at_most_11_evaluations():
    """Multi-block draws at N in [400, 1e6]: Brent alone on the law's bracket at c_max, where the log grid took 20."""
    rng = np.random.default_rng(8)
    evaluations = [find_limit(_multi_block_spec(rng, 400, 1e6, eps=k % 2 == 1)).iterations for k in range(300)]
    assert np.median(evaluations) <= 11, sorted(evaluations)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--j", "3/2", "--class", "1/2+1/2", "--n", "100000", "--zeta", "0.5,0.8660254037844386"),
         ("0.1088658664208858", "0.00091335581704860642", 10)),
        (("--j", "5/2", "--class", "1+1/2+0", "--n", "5000", "--zeta", "0.6,0.7,0.3872983346207417"),
         ("0.037252228181430994", "0.010441626167568177", 9)),
        (("--j", "7/2", "--class", "3/2+1+0", "--n", "40", "--zeta", "0.8,0.6,0"),
         ("0.19680309158911413", "0.11510841588445052", 9)),
        (("--j", "9/2", "--class", "2+1+1/2", "--n", "700", "--zeta", "0.5,0.5,0.7071067811865476"),
         ("0.12291593581951363", "0.030829357781883195", 9)),
        (("--j", "2", "--class", "1/2+1/2+0", "--n", "2", "--zeta", "0.1,0.99498743710662,0"),
         ("0.58033784715103698", "2.0199220357635124", 26)),
    ],
)
def test_multi_block_limits_output_is_unchanged(capsys, argv, want):
    """`limits` on two or more active blocks prints these bytes, each checked against both references.

    The first four start from the law at c_max and take 10, 9, 9 and 9
    evaluations where the log grid took 21, 19, 20 and 20; their xi^2 moved by
    at most 7e-15 relative and lies within 4e-14 of `sweep_limit_reference`
    and of `dense_limit_reference` (on enough points for 4 J_max N).  The
    N = 2 draw, with c_max = 0.99 too light for the law, runs the linear
    grid: 4 J_max N + 1 = 5 points and 21 more to refine its one local
    minimum, where the log grid it replaced took 21 in all; its xi^2 moved
    by 2.2e-14 relative and lies 2.3e-14 above the dense reference.
    """
    assert main(["limits", *argv]) == 0
    xi2_min, mu_min, iterations = want
    expected = (
        f'{{\n  "schema": "1",\n  "xi2_min": {xi2_min},\n  "mu_min": {mu_min},\n'
        f'  "iterations": {iterations},\n  "status": "ok"\n}}\n'
    )
    assert capsys.readouterr().out == expected


def test_find_limit_refuses_an_overflowing_j_w_n_before_evaluating(monkeypatch):
    """J_l |zeta_l|^2 N = inf: the law's mu* would be 0, and so would the bracket and the grid behind it."""
    calls = []
    monkeypatch.setattr(coherent_dynamics, "_moments", lambda spec, mu: calls.append(mu))
    with pytest.raises(NonFiniteInput, match="overflows the float range"):
        find_limit(oat_spec(DEC_I, int(1.7e308), (1,)))
    assert calls == []


def test_find_limit_refuses_a_j_w_n_that_underflows_before_evaluating(monkeypatch):
    """|zeta_2|^2 = 5e-324 on a J_l = 1/2 block: J_l |zeta_l|^2 N rounds to 0 at N = 1."""
    calls = []
    monkeypatch.setattr(coherent_dynamics, "_moments", lambda spec, mu: calls.append(mu))
    with pytest.raises(InvalidInput, match="underflows to 0"):
        find_limit(oat_spec(DEC_III, 1, (1.0, 2.3e-162)))
    assert calls == []


@pytest.mark.parametrize("dec, zeta", [(DEC_I, (1,)), (DEC_II, (math.sqrt(0.7), math.sqrt(0.3)))])
@pytest.mark.parametrize("n", [10**23, 10**30, 10**100, 10**150])
def test_find_limit_refuses_a_limit_below_the_float_resolution(dec, zeta, n):
    """Past N of about 1e17 the locus limit falls below 1e-12, where the kernel's rounding of a
    few 1e-16 is more than 1e-3 of it; (3) read -2.2e-16 with status "ok" at N = 1e23."""
    with pytest.raises(InvalidInput, match="resolves: N is too large"):
        find_limit(oat_spec(dec, n, zeta))


def test_off_locus_limits_stay_resolved_at_large_n():
    """An off-locus split plateaus: {1/2, 1/2} at w = 0.35 reads 0.0645 up to N = 1e120.

    Past N of about 1e115, Q^2 overflows in `_var_min`; it read var_min and
    xi^2 as -inf there, and the search reported "no_squeezing".
    """
    for n in (10**23, 10**100, 10**120):
        res = find_limit(oat_spec(DEC_III, n, (math.sqrt(0.35), math.sqrt(0.65))))
        assert res.status == "ok" and res.xi2_min == pytest.approx(0.0644882, rel=1e-5)


def test_var_min_divides_before_squaring_only_where_q_squared_overflows():
    """Every finite Q^2 keeps base - Q^2 / (P + |(P, Q)|) bit for bit; past it Q (Q / ...) stays finite."""
    rng = np.random.default_rng(12)
    for _ in range(2000):
        base, p, q = (float(x) for x in 10.0 ** rng.uniform(-300, 300, 3))
        q *= float(rng.choice((-1.0, 1.0)))
        if math.isfinite(q * q):
            assert _var_min(base, p, q) == base - q * q / (p + math.hypot(p, q))
    for q in (1.4e154, 5.4e158, -1e300):
        assert q * q == math.inf
        assert _var_min(1e300, 1e120, q) == 1e300 - q * (q / (1e120 + math.hypot(1e120, q)))
        assert math.isfinite(_var_min(1e300, 1e120, q))


@pytest.mark.parametrize(
    "twice_j, twice_subspins, zeta", [(1, (1,), (1,)), (2, (1, 0), (1, 0)), (3, (1, 1), (1, 0))]
)
def test_dense_reference_keeps_a_dip_that_ends_at_the_guard(twice_j, twice_subspins, zeta):
    """N = 2, all weight on one J_l = 1/2 block: xi^2 falls to 1/2 at mu = pi, where the mean collapses.

    The grid minimum beside the guard's inf keeps its grid value; refined,
    it read 0.4999999978, below the infimum.
    """
    xi2_min, mu_min = dense_limit_reference(oat_spec(IrrepDecomposition(SpinQuantum(twice_j), twice_subspins), 2, zeta))
    assert 0.5 <= xi2_min <= 0.5 + 1e-6 and mu_min == pytest.approx(math.pi, abs=2e-3)


def test_xi2_refuses_a_mean_whose_square_leaves_the_normal_range():
    """A mean above the guard whose square underflows (or overflows) is refused, not divided by."""
    spec = oat_spec(DEC_IV, 10, (1e-150, 1, 0))  # limits --zeta 1e-150,1,0 divided by zero
    with pytest.raises(InvalidInput, match="out of range for xi\\^2"):
        squeeze_trace(spec, 0.1)
    with pytest.raises(InvalidInput, match="out of range for xi\\^2"):
        find_limit(spec)
    with pytest.raises(InvalidInput, match="its square is inf"):
        squeeze_trace(oat_spec(DEC_I, 10**200, (1,)), 0.0)
    # at the normal range's edge xi^2 is the same float as before the check
    spec = oat_spec(DEC_III, 10, (0.6, 0.8))
    for mean in (math.sqrt(sys.float_info.min) * 1.0000001, 1e154, 0.3):
        square = mean * mean
        assert sys.float_info.min <= square < math.inf
        assert _xi2(spec, mean, 0.7) == 2.0 * spec.n * spec.c_sum * 0.7 / square


def test_asymptotic_limit_r1_is_the_law_it_always_was():
    """`asymptotic_limit_r1` reads `_r1_law`, which the search's seed also reads, and keeps every bit."""
    for twice_j_sub in range(1, 10):
        for n in (2, 37, 10**3, 123457, 10**9):
            jn = (twice_j_sub / 2.0) * n
            r1 = asymptotic_limit_r1(twice_j_sub, n)
            assert r1.xi2 == 0.5 * (1.5 / jn) ** (2.0 / 3.0) + 0.5 / jn
            assert r1.mu == 12.0 ** (1.0 / 6.0) * jn ** (-2.0 / 3.0)


def test_asymptotic_limit_r1_values():
    n = 10**5
    r1 = asymptotic_limit_r1(3, n)
    assert r1.xi2 == pytest.approx(0.5 * (1 / n) ** (2 / 3) + 1 / (3 * n), rel=1e-12)
    assert r1.mu == pytest.approx(2 / math.sqrt(3) * n ** (-2 / 3), rel=1e-12)
    r1_j1 = asymptotic_limit_r1(2, n)
    assert r1_j1.xi2 == pytest.approx(3.0911e-4, rel=1e-3)
    with pytest.raises(ValueError):
        asymptotic_limit_r1(0, 100)
    with pytest.raises(ValueError):
        asymptotic_limit_r1(3, 1)


def test_r1_series_matches_exact_in_its_regime():
    n = 10**6
    spec = oat_spec(DEC_I, n, (1,))
    mu = asymptotic_limit_r1(3, n).mu
    exact = squeeze_trace(spec, mu).xi2
    series = r1_xi2_series(3, n, mu)
    assert abs(series / exact - 1.0) < 0.05


def test_type_iii_closed_form_deviation_is_the_mean_factor():
    """At single-subspace weight the printed expression equals the exact value times
    the mean-spin factor D = sum_l w_l (1 - 2 w_l sin^2(mu/4))^(N-1); the two
    coincide as mu -> 0 and asymptotically at the squeezing minimum."""
    for n in (4, 6, 10):
        spec = oat_spec(DEC_III, n, (1, 0))
        for mu in (0.2, 0.8, 1.5):
            d_factor = sum(
                w * (1 - 2 * w * math.sin(mu / 4) ** 2) ** (n - 1)
                for w in spec.coherent.weights
            )
            exact = squeeze_trace(spec, mu).xi2
            printed = float(type_iii_reference(spec, mu))
            assert printed == pytest.approx(exact * d_factor, rel=1e-9)


def test_type_iii_closed_form_mixed_weights_documented_gap():
    """At mixed weights the printed expression lies below the exact value (it
    minimizes each subspace independently); the gap shrinks with mu."""
    spec = oat_spec(DEC_III, 8, (1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert float(type_iii_reference(spec, 0.0)) == pytest.approx(1.0, abs=1e-12)
    for mu in (0.3, 0.9):
        assert float(type_iii_reference(spec, mu)) <= squeeze_trace(spec, mu).xi2 + 1e-12


def test_type_iii_closed_form_single_weight_minimum():
    """With all weight on one subspace the printed expression's minimum reproduces the
    one-subspace J=1/2 asymptote (the mean-spin factor tends to 1 there)."""
    n = 10**5
    spec = oat_spec(DEC_III, n, (1, 0))
    ref = asymptotic_limit_r1(1, n)
    grid = np.geomspace(ref.mu / 3, ref.mu * 3, 300)
    printed_min = float(min(type_iii_reference(spec, float(m)) for m in grid))
    assert abs(printed_min / ref.xi2 - 1) < 0.03


def test_type_iii_equal_superposition_adjudication():
    """Measured relationship at equal weights, frozen from the exact oracle:
    the exact path reproduces the (6/N)^(2/3)/2 limit (see find_limit tests),
    while the printed expression evaluates to roughly half the exact value
    near the optimum (ratio drifts from 0.41 at N=1e3 toward 0.5 as N grows).
    """
    n = 10**5
    spec = oat_spec(DEC_III, n, (1 / math.sqrt(2), 1 / math.sqrt(2)))
    exact = find_limit(spec)
    assert abs(exact.xi2_min / (0.5 * (6 / n) ** (2 / 3)) - 1) < 0.1
    ref_mu = 2 * 3 ** (1 / 6) * (n / 2) ** (-2 / 3)
    ratio = float(type_iii_reference(spec, ref_mu)) / squeeze_trace(spec, ref_mu).xi2
    assert 0.38 < ratio < 0.52


def test_type_iii_single_weight_matches_r1_limit():
    """zeta = (1, 0) reproduces the one-subspace J=1/2 limit at large N."""
    n = 10**5
    res = find_limit(oat_spec(DEC_III, n, (1, 0)))
    ref = asymptotic_limit_r1(1, n)
    assert abs(res.xi2_min / ref.xi2 - 1) < 0.05
    assert abs(res.mu_min / ref.mu - 1) < 0.05


@settings(max_examples=30, deadline=None)
@given(
    dec_idx=st.integers(min_value=0, max_value=3),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_xi2_is_unity_at_zero_property(dec_idx, n, seed):
    dec = (DEC_I, DEC_II, DEC_III, DEC_IV)[dec_idx]
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(dec.r))
    # keep some weight on a nontrivial subspace
    w[0] = w[0] + 0.05
    w = w / w.sum()
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, dec.r))
    spec = oat_spec(dec, n, tuple(np.sqrt(w) * phases))
    trace = squeeze_trace(spec, 0.0)
    assert trace.xi2 == pytest.approx(1.0, abs=1e-10)
    assert trace.var_min == pytest.approx(trace.var_max, abs=1e-10)
