"""Exceptions shared across the package."""


class ZeroFactor(ArithmeticError):
    """A generalized factorial ran into a zero term; the factorial path is unavailable."""


class ZeroEntry(ArithmeticError):
    """An operation that needs nonzero entries hit a zero (zero generalized Pascal matrix)."""


class SizeMismatch(ValueError):
    """Matrix or series sizes are incompatible."""


class NotFractal(ValueError):
    """A series does not satisfy the digit-multiplicative condition a(x) = (sum_{n<q} a_n x^n) a(x^q)."""
