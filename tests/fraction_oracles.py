"""The Fraction code that integer kernels replaced, kept as test oracles.

``FractionPolynomial`` is ``genpascal.polynomials.Polynomial`` as it was when
it stored its coefficients as Fractions, renamed and otherwise unchanged; its
``__repr__`` still reads ``Polynomial([...])``. ``masked_convolve`` is the
Fraction loop of ``genpascal.zeroalg.masked_convolve`` over ``digit_binom``,
and ``gbinom`` the ratio of Fraction factorials.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable

from genpascal.rationals import ZERO, SharedFractions, common_denominator, numerators
from genpascal.zeroalg import digit_binom


class FractionPolynomial:
    """Immutable polynomial over Fraction; coefficient index = degree.

    Trailing zero coefficients are stripped, so the trailing coefficient of a
    nonzero polynomial is nonzero and the zero polynomial has no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        shared = SharedFractions()
        cs = [c if type(c) is Fraction else shared[c] for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "FractionPolynomial") -> "FractionPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self) -> "FractionPolynomial":
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "FractionPolynomial") -> "FractionPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPolynomial(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FractionPolynomial()
        da, db = common_denominator(self.coeffs), common_denominator(other.coeffs)
        a, rb = numerators(self.coeffs, da), numerators(reversed(other.coeffs), db)
        # coefficient k pairs a_i with b_{k-i}, that is with rb[last - k + i]
        last = len(rb) - 1
        out = [
            sum(map(mul, a[max(0, k - last) : k + 1], rb[max(0, last - k) :])) for k in range(len(a) + last)
        ]
        den = da * db
        return FractionPolynomial(out if den == 1 else [Fraction(x, den) for x in out])

    __rmul__ = __mul__

    def shift(self, k: int) -> "FractionPolynomial":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return FractionPolynomial([ZERO] * k + list(self.coeffs))

    def substitute_power(self, q: int) -> "FractionPolynomial":
        """p(x) -> p(x**q)."""
        if self.is_zero():
            return self
        out = [ZERO] * (self.degree * q + 1)
        for i, c in enumerate(self.coeffs):
            out[i * q] = c
        return FractionPolynomial(out)

    def truncate(self, degree: int) -> "FractionPolynomial":
        """Drop terms of degree > ``degree``."""
        return FractionPolynomial(self.coeffs[: degree + 1])

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _coeff(a, n: int) -> Fraction:
    if not 0 <= n < len(a):
        return ZERO
    x = a[n]
    return x if type(x) is Fraction else Fraction(x)  # the constructor's coercion rule


def masked_convolve(a, b, q: int, degree: int) -> list[Fraction]:
    """Product in the masked algebra: coefficient n is
    sum_m dominance(n,m) a_m b_{n-m}. Valid for arbitrary series."""
    out = []
    for n in range(degree + 1):
        out.append(
            sum((_coeff(a, m) * _coeff(b, n - m) for m in range(n + 1) if digit_binom(q, n, m)), ZERO)
        )
    return out


def factorial(b, n: int) -> Fraction:
    """b_1 b_2 ... b_n as a Fraction product."""
    acc = Fraction(1)
    for t in range(1, n + 1):
        acc *= b[t]
    return acc


def gbinom(b, n: int, m: int) -> Fraction:
    """b_n! / (b_m! b_{n-m}!) from the Fraction factorials, zero for m > n."""
    if m < 0 or m > n:
        return ZERO
    return factorial(b, n) / (factorial(b, m) * factorial(b, n - m))
