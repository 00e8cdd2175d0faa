"""The closed-form kernel against a 60-digit mpmath evaluation of the same formulas.

The reference writes the per-subspace sums of `coherent_dynamics` directly,
with every power and every 1 - power taken at 60 significant digits, so any
deviation is the float kernel's own rounding.  ξ² at N = 10^9 is bounded by
its conditioning: var_min cancels down to about 5e-7 of the O_3 variance.
"""

import json
import math

import pytest

from spinsqueeze import (
    IrrepDecomposition,
    SpinQuantum,
    css_expectation_perp,
    find_limit,
    oat_spec,
    squeeze_trace,
)
from spinsqueeze.cli import main
from spinsqueeze.coherent_dynamics import XI2_MEAN_GUARD

from observables import mp

J32 = SpinQuantum(3)
CLASSES = [
    (IrrepDecomposition(J32, (3,)), (1.0,)),
    (IrrepDecomposition(J32, (2, 0)), (math.sqrt(0.7), math.sqrt(0.3))),
    (IrrepDecomposition(J32, (1, 1)), (math.sqrt(0.35), math.sqrt(0.65))),
    (IrrepDecomposition(J32, (1, 0, 0)), (math.sqrt(0.6), math.sqrt(0.25), math.sqrt(0.15))),
    (IrrepDecomposition(SpinQuantum(5), (1, 1, 1)), (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))),
]
NS = [10, 10**3, 10**5, 10**7, 10**9]


def reference(spec, mu):
    """(mean, var_min, var_max, xi2) of the closed form at 60 digits."""
    n = spec.n
    mu = mp.mpf(mu)
    c, ch, sh = mp.cos(mu), mp.cos(mu / 2), mp.sin(mu / 2)
    mean = p = q = base = mp.mpf(0)
    for tj, w in zip(spec.decomposition.twice_subspins, spec.coherent.weights):
        if tj == 0 or w == 0.0:
            continue
        jl, w = mp.mpf(tj) / 2, mp.mpf(w)
        shrink = 1 - w * (1 - c**tj)
        shrink_h = 1 - w * (1 - ch**tj)
        base += jl * w
        mean += jl * w * ch ** (tj - 1) * shrink_h ** (n - 1)
        a = jl * (n - 1) * w * (1 - c ** (2 * tj - 2) * shrink ** (n - 2)) / 2
        b = jl * (n - 1) * w * ch ** (2 * tj - 2) * shrink_h ** (n - 2)
        if tj > 1:
            a += (jl - mp.mpf(1) / 2) * (1 - c ** (tj - 2) * shrink ** (n - 1)) / 2
            b += (jl - mp.mpf(1) / 2) * ch ** (tj - 2) * shrink_h ** (n - 1)
        p += jl * w * a
        q += jl * w * 2 * sh * b
    f = mp.mpf(spec.decomposition.f)
    pref = f * f * n / 2
    amp = mp.sqrt(p * p + q * q) * pref
    var_min, var_max = pref * (base + p) - amp, pref * (base + p) + amp
    mean *= f * n
    return mean, var_min, var_max, 2 * n * base * var_min / mean**2


def rel(got, want):
    return float(abs((mp.mpf(got) - want) / want))


def assert_kernel_matches(spec, mu, bound):
    trace = squeeze_trace(spec, mu)
    mean, var_min, var_max, xi2 = reference(spec, mu)
    errors = {
        "var_min": rel(trace.var_min, var_min),
        "var_max": rel(trace.var_max, var_max),
    }
    if abs(mean) < 1e-300:  # below the float range: the kernel's exp underflows to 0
        assert abs(trace.perp_expectation) < 1e-300
    else:
        errors["mean"] = rel(trace.perp_expectation, mean)
    if math.isfinite(trace.xi2):
        errors["xi2"] = rel(trace.xi2, xi2)
    else:  # the one collapsed-mean rule, held against the 60-digit mean
        assert abs(mean) <= XI2_MEAN_GUARD * css_expectation_perp(spec)
    assert max(errors.values()) <= bound, errors


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("dec,zeta", CLASSES, ids=lambda v: str(getattr(v, "twice_subspins", "")))
def test_kernel_matches_mpmath_around_the_limit(dec, zeta, n):
    spec = oat_spec(dec, n, zeta)
    mu_min = find_limit(spec).mu_min
    for mu in (0.5 * mu_min, mu_min, 2.0 * mu_min):
        assert_kernel_matches(spec, mu, 1e-9 if n <= 10**7 else 1e-8)


@pytest.mark.parametrize("n", [10, 10**3])
@pytest.mark.parametrize("dec,zeta", CLASSES, ids=lambda v: str(getattr(v, "twice_subspins", "")))
def test_kernel_matches_mpmath_where_cosines_turn_negative(dec, zeta, n):
    """cos(2.5) and cos(5.0 / 2) are negative, so every parity sign is taken."""
    spec = oat_spec(dec, n, zeta)
    for mu in (1.0, 2.5, 5.0):
        assert_kernel_matches(spec, mu, 1e-9)


def test_limits_cli_stays_positive_at_1e8(capsys):
    """This case printed xi2_min -0.5805 with status ok while 1 - x cancelled."""
    assert main(["limits", "--j", "3/2", "--class", "1,2,3", "--n", "100000000", "--zeta", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    spec = oat_spec(IrrepDecomposition(J32, (3,)), 10**8, (1.0,))
    want = reference(spec, out["mu_min"])[3]
    assert 2.3e-6 < out["xi2_min"] < 2.35e-6
    assert rel(out["xi2_min"], want) <= 1e-8
