"""Dense exact polynomials, also used as truncated power series."""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .rationals import ONE, ZERO, SharedFractions, common_denominator, numerators


class Polynomial:
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
        raise AttributeError("Polynomial is immutable")

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
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        da, db = common_denominator(self.coeffs), common_denominator(other.coeffs)
        a, rb = numerators(self.coeffs, da), numerators(reversed(other.coeffs), db)
        # coefficient k pairs a_i with b_{k-i}, that is with rb[last - k + i]
        last = len(rb) - 1
        out = [
            sum(map(mul, a[max(0, k - last) : k + 1], rb[max(0, last - k) :])) for k in range(len(a) + last)
        ]
        den = da * db
        return Polynomial(out if den == 1 else [Fraction(x, den) for x in out])

    __rmul__ = __mul__

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Polynomial([ZERO] * k + list(self.coeffs))

    def substitute_power(self, q: int) -> "Polynomial":
        """p(x) -> p(x**q)."""
        if self.is_zero():
            return self
        out = [ZERO] * (self.degree * q + 1)
        for i, c in enumerate(self.coeffs):
            out[i * q] = c
        return Polynomial(out)

    def truncate(self, degree: int) -> "Polynomial":
        """Drop terms of degree > ``degree``."""
        return Polynomial(self.coeffs[: degree + 1])

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


P_ZERO = Polynomial()
P_ONE = Polynomial([ONE])


def w_poly(m: int) -> Polynomial:
    """1 + x + ... + x**m, with the zero polynomial for m = -1."""
    if m < -1:
        raise ValueError("w_poly needs m >= -1")
    return Polynomial([ONE] * (m + 1))


def mul_trunc(a: Sequence[Fraction], b: Sequence[Fraction], degree: int) -> list[Fraction]:
    """Coefficient list of a*b through ``degree``."""
    out = [ZERO] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                out[i + j] += x * y
    return out


def geometric(ratio: Fraction, degree: int) -> list[Fraction]:
    """Coefficients of 1/(1 - ratio*x) through ``degree``."""
    out = [ONE]
    for _ in range(degree):
        out.append(out[-1] * ratio)
    return out


def divide_linear(series: list[Fraction], ratio: Fraction) -> None:
    """Divide the truncated series in place by 1 - ratio*x."""
    for k in range(1, len(series)):
        series[k] += ratio * series[k - 1]
