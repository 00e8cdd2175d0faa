"""Exception types shared across the library."""


class SpinSqueezeError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(SpinSqueezeError):
    """Operands act on spaces of incompatible dimension."""


class NormalizationError(SpinSqueezeError):
    """A coefficient or amplitude vector is not normalized."""


class NonFiniteInput(SpinSqueezeError):
    """An input that must be a finite number is NaN or infinite."""


class NotTraceless(SpinSqueezeError):
    """An operator expected to be traceless carries a nonzero trace."""


class NonDiagonalCartan(SpinSqueezeError):
    """A generator chosen for the Cartan subalgebra is not diagonal."""


class DegenerateRootSpace(SpinSqueezeError):
    """A Cartan choice gives two ladder operators the same root tuple."""


class NotAnSu2Triple(SpinSqueezeError):
    """Three operators fail the su(2) commutation relations."""


class AllTrivialSubspins(SpinSqueezeError):
    """Every subspin in a decomposition is zero; the structure factor diverges."""


class VanishingMeanSpin(SpinSqueezeError):
    """The mean-spin expectation is too small for the squeezing parameter."""


class NotOatStart(SpinSqueezeError):
    """A closed-form twisting formula got a coherent state off theta = pi/2, phi = 0."""


class WrongClass(SpinSqueezeError):
    """An operation specialized to one equivalence class got another."""


class NotDiagonal(SpinSqueezeError):
    """A matrix required to be diagonal has off-diagonal weight."""


class SizeLimit(SpinSqueezeError):
    """A requested basis exceeds the configured size cap."""


class FitDiverged(SpinSqueezeError):
    """Nonlinear least squares failed to converge."""
