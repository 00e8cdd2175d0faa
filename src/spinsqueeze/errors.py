"""Exception types shared across the library.

Every public call either returns its answer or raises a SpinSqueezeError.
Arguments outside a call's domain (a count below 1, a NaN, a weight vector of
the wrong length or norm, a twisting start off theta = pi/2) raise InvalidInput
or one of its subclasses; InvalidInput is also a ValueError.
The checks live in the library only: the command line maps InvalidInput to
exit code 1 and every other SpinSqueezeError, a numerical status such as a
vanished mean spin or an oversized basis, to exit code 2.
"""


class SpinSqueezeError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(SpinSqueezeError, ValueError):
    """An argument lies outside the domain of the call."""


class DimensionMismatch(InvalidInput):
    """Operands act on spaces of incompatible dimension."""


class NormalizationError(InvalidInput):
    """A coefficient or amplitude vector is not normalized."""


class NonFiniteInput(InvalidInput):
    """An input that must be a finite number is NaN or infinite."""


class NotTraceless(SpinSqueezeError):
    """An operator expected to be traceless carries a nonzero trace."""


class NonDiagonalCartan(SpinSqueezeError):
    """A generator chosen for the Cartan subalgebra is not diagonal."""


class DegenerateRootSpace(SpinSqueezeError):
    """A Cartan choice gives two ladder operators the same root tuple."""


class NotAnSu2Triple(SpinSqueezeError):
    """Three operators fail the su(2) commutation relations."""


class AllTrivialSubspins(InvalidInput):
    """Every subspin in a decomposition is zero; the structure factor diverges."""


class VanishingMeanSpin(SpinSqueezeError):
    """The mean-spin expectation is too small for the squeezing parameter."""


class NotOatStart(InvalidInput):
    """A closed-form twisting formula got a coherent state off theta = pi/2, phi = 0."""


class NotDiagonal(SpinSqueezeError):
    """A matrix required to be diagonal has off-diagonal weight."""


class SizeLimit(SpinSqueezeError):
    """A requested basis exceeds the configured size cap."""


class FitDiverged(SpinSqueezeError):
    """Nonlinear least squares failed to converge."""
