"""Dense exact polynomials, also used as truncated power series.

A polynomial is stored as its integer view (den, ints), by the rule of the
matrices: den is the lcm of the coefficient denominators and ints[k] is den
times the coefficient of x**k, with trailing zeros stripped, so the view is
unique and equal polynomials have equal views. Sums, products, shifts,
substitutions and truncations run on the ints and divide out one gcd at the
end; ``coeffs`` makes the exact Fractions on first read, one per distinct
numerator. A polynomial built from values stores only their view, too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from .rationals import ONE, ZERO, SharedFractions, lowest_view, to_view


class Polynomial:
    """Immutable polynomial with exact rational coefficients; coefficient
    index = degree. The zero polynomial has no coefficients."""

    __slots__ = ("_view", "_coeffs")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        den, ints = to_view(coeffs)
        while ints and not ints[-1]:  # a zero has denominator 1, so den stays the lcm
            ints.pop()
        object.__setattr__(self, "_view", (den, tuple(ints)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_view(cls, den: int, ints: Iterable[int]) -> "Polynomial":
        """The polynomial sum_k ints[k] / den * x**k, stored as its view: trailing
        zeros are stripped and one gcd of den and the ints divided out; no
        Fraction is built."""
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        den, (ints,) = lowest_view(den, (ints,))
        return _stored(den, ints)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as exact Fractions, built from the view on first read."""
        try:
            return self._coeffs
        except AttributeError:
            pass
        den, ints = self._view
        cs = tuple(map(SharedFractions(den).__getitem__, ints))
        object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._view[1]) - 1

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self._view[1]):
            return self.coeffs[n]
        return ZERO

    def is_zero(self) -> bool:
        return not self._view[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._view == other._view

    def __hash__(self):
        return hash(self._view)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        (da, a), (db, b) = self._view, other._view
        if da != db:
            den = lcm(da, db)
            a, b = [x * (den // da) for x in a], [x * (den // db) for x in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        return Polynomial.from_view(da, [*map(add, a, b), *a[len(b) :]])

    def __neg__(self) -> "Polynomial":
        den, ints = self._view
        return _stored(den, tuple([-x for x in ints]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        da, a = self._view
        if isinstance(other, (int, Fraction)):
            return Polynomial.from_view(da * other.denominator, [x * other.numerator for x in a])
        db, b = other._view
        if not a or not b:
            return P_ZERO
        # each nonzero term of a adds a scaled copy of b: make a the factor for which that costs less
        if (len(b) - b.count(0)) * len(a) < (len(a) - a.count(0)) * len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        width = len(b)
        for i, x in enumerate(a):
            if x:
                out[i : i + width] = map(add, out[i : i + width], map(mul, b, repeat(x)))
        return Polynomial.from_view(da * db, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        den, ints = self._view
        if not ints:
            return self
        return _stored(den, (0,) * k + ints)

    def substitute_power(self, q: int) -> "Polynomial":
        """p(x) -> p(x**q)."""
        den, ints = self._view
        if not ints:
            return self
        out = [0] * ((len(ints) - 1) * q + 1)
        out[::q] = ints
        return _stored(den, tuple(out))

    def truncate(self, degree: int) -> "Polynomial":
        """Drop terms of degree > ``degree``."""
        den, ints = self._view
        return Polynomial.from_view(den, ints[: degree + 1])

    def evaluate(self, x: Fraction | int) -> Fraction:
        den, ints = self._view
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        return Fraction(acc, den)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _stored(den: int, ints: Sequence[int]) -> Polynomial:
    """The polynomial whose view is already (den, ints) in lowest terms."""
    self = object.__new__(Polynomial)
    object.__setattr__(self, "_view", (den, tuple(ints)))
    return self


P_ZERO = Polynomial()
P_ONE = Polynomial([ONE])


def w_poly(m: int) -> Polynomial:
    """1 + x + ... + x**m, with the zero polynomial for m = -1."""
    if m < -1:
        raise ValueError("w_poly needs m >= -1")
    return _stored(1, (1,) * (m + 1))


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
