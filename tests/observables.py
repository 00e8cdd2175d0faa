"""Reference observables for the tests.

The closed forms never build operators; the dense single-particle quadratures
of a class triple let the tests measure the same quantities on the exact
oracle's states.  `type_iii_reference` is the paper's printed {1/2, 1/2}
expression for xi^2, which the tests hold against the exact closed form.
"""

import math

import mpmath

from spinsqueeze import HermitianOperator, Su2Triple

mp = mpmath.MPContext()  # 60 digits for the test references; the global precision stays as it is
mp.dps = 60


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
