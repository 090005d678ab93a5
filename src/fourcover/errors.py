"""Exception types shared across the package."""


class FourCoverError(Exception):
    """Base class for all domain errors."""


class InsufficientPrecision(FourCoverError):
    """A valuation comparison or digit query cannot be decided at the
    current working precision.  Callers may retry at higher precision."""


class NeedsExtension(FourCoverError):
    """The requested element lives in a larger tower.

    Attributes ``e`` and ``f`` give a ramification index / residue degree
    that would suffice, relative to the tower that raised.
    """

    def __init__(self, message, e=None, f=None):
        super().__init__(message)
        self.e = e
        self.f = f


class NegativeValuation(FourCoverError):
    """Residue of an element with a pole."""


class DivisionByIndistinguishableZero(FourCoverError):
    """Division by an element that cannot be told apart from zero."""


class DegenerateModel(FourCoverError):
    """The special fiber of the naive model is not reduced (the equation
    is a constant times an exact p-th power)."""


class ConstructionMismatch(FourCoverError):
    """A blow-up chart failed its certification."""


class CoalescingBranchPoints(FourCoverError):
    """Two branch points are indistinguishable at working precision."""


class NonCyclicExponent(FourCoverError):
    """A branch exponent vanishes mod p, so the cover is not p-cyclic
    along that point."""


class NotReduced(FourCoverError):
    """An Artin-Schreier right-hand side was expected in reduced form."""


class UnsupportedPrime(FourCoverError):
    """Operation not defined for this residue characteristic."""


class BudgetExceeded(FourCoverError):
    """Brute-force search ran out of its digit budget."""


class InvalidInput(FourCoverError):
    """Malformed request data (bad token, bad exponents, lambda in {0,1}...)."""


class PrecisionTooLarge(InvalidInput):
    """A precision whose coordinate modulus p^N would pass TOKEN_DIGITS
    decimal digits.  The CLI's retry at 4x precision reports the first
    run's InsufficientPrecision instead of this."""
