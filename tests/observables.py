"""Dense single-particle quadratures of a class triple, for oracle tests.

The closed forms never build operators; these helpers let the tests measure
the same quantities on the exact oracle's states.
"""

import math

from spinsqueeze import HermitianOperator, Su2Triple


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
