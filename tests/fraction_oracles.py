"""The Fraction code that integer kernels replaced, kept as test oracles.

``FractionPolynomial`` is ``genpascal.polynomials.Polynomial`` as it was when
it stored its coefficients as Fractions, renamed and otherwise unchanged; its
``__repr__`` still reads ``Polynomial([...])``. ``masked_convolve`` is the
Fraction loop of ``genpascal.zeroalg.masked_convolve`` over ``digit_binom``,
and ``gbinom`` the ratio of Fraction factorials.

``build_from_c``, ``hadamard_inverse``, ``masked_matrix``, ``check_fractal``,
``fractal_series`` and ``carryless_convolve`` are the library functions of
those names as they were when they made one Fraction per entry or
coefficient; ``materialize_hadamard`` is the Hadamard family's materialize,
which streamed the per-entry products of the factors through ``from_fn``.
Their matrices go through the value constructor.

``value_form`` writes a value as one of the other inputs the value
constructors coerce through ``Fraction()``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import ge, mul
from typing import Iterable

from genpascal.digits import digit_product_rows
from genpascal.errors import NotFractal, SizeMismatch, ZeroEntry
from genpascal.matrices import TriangularMatrix
from genpascal.rationals import ONE, ZERO
from genpascal.zeroalg import digit_binom


class FractionSubclass(Fraction):
    pass


def value_form(value: Fraction, pick: int):
    """``value`` as a Fraction subclass, its text, its unreduced text, or
    an int or bool where it is one; ``pick`` chooses the form."""
    forms = [FractionSubclass(value), str(value), f"{2 * value.numerator}/{2 * value.denominator}"]
    if value.denominator == 1:
        forms.append(int(value))
        if value in (0, 1):
            forms.append(bool(value))
    return forms[pick % len(forms)]


class FractionPolynomial:
    """Immutable polynomial over Fraction; coefficient index = degree.

    Trailing zero coefficients are stripped, so the trailing coefficient of a
    nonzero polynomial is nonzero and the zero polynomial has no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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
        da, db = lcm(*(c.denominator for c in self.coeffs)), lcm(*(c.denominator for c in other.coeffs))
        a = [c.numerator * (da // c.denominator) for c in self.coeffs]
        rb = [c.numerator * (db // c.denominator) for c in reversed(other.coeffs)]
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


def build_from_c(c, size: int) -> TriangularMatrix:
    """Matrix with entries c_m c_{n-m} / c_n.

    Each c_k is read once as num_k / den_k, and each entry is one Fraction
    (num_m num_{n-m} den_n) / (den_m den_{n-m} num_n), reduced once; a zero
    c_n raises ZeroDivisionError.
    """
    cs = [c[n] for n in range(size)]
    nums = [x.numerator for x in cs]
    dens = [x.denominator for x in cs]
    return TriangularMatrix(
        [
            [Fraction(nums[m] * nums[n - m] * dens[n], dens[m] * dens[n - m] * nums[n]) for m in range(n + 1)]
            for n in range(size)
        ]
    )


def hadamard_inverse(a: TriangularMatrix) -> TriangularMatrix:
    """Entrywise reciprocal on the lower triangle; the group inverse."""
    for n, row in enumerate(a.rows):
        for m, x in enumerate(row):
            if x == 0:
                raise ZeroEntry(f"zero entry at ({n},{m}): not invertible")
    return TriangularMatrix([[ONE / x for x in row] for row in a.rows])


def materialize_hadamard(spec, size: int) -> TriangularMatrix:
    """A Hadamard spec's truncation from its streamed per-entry products."""
    return TriangularMatrix.from_fn(size, spec.entry)


def check_fractal(a, q: int, degree: int) -> None:
    """Raise NotFractal unless a_d = a_{d mod q} * a_{d div q} through ``degree``
    (the coefficientwise form of a(x) = (sum_{n<q} a_n x^n) a(x^q)) with a_0 = 1."""
    if _coeff(a, 0) != 1:
        raise NotFractal("a_0 must be 1")
    for d in range(q, degree + 1):
        if _coeff(a, d) != _coeff(a, d % q) * _coeff(a, d // q):
            raise NotFractal(f"digit-multiplicative condition fails at degree {d}")


def fractal_series(base, q: int, degree: int) -> list[Fraction]:
    """The digit-multiplicative series a_n = a_{n div q} * a_{n mod q} through
    ``degree``, extended from its base block a_0 = 1, a_1, ..., a_{q-1}."""
    out = [Fraction(x) for x in base[: degree + 1]]
    for n in range(q, degree + 1):
        out.append(out[n // q] * out[n % q])
    return out


def masked_matrix(a, q: int, size: int) -> TriangularMatrix:
    """Entries a_{n-m} masked by digit dominance: the rows of the
    Sierpinski pattern times the series."""
    if len(a) < size:
        raise SizeMismatch(f"need {size} series coefficients, got {len(a)}")
    coeffs = [_coeff(a, d) for d in range(size)]
    mask = digit_product_rows(q, size, ge)
    return TriangularMatrix(
        [[coeffs[n - m] if mask[n][m] else ZERO for m in range(n + 1)] for n in range(size)]
    )


def carryless_convolve(a, b, q: int, degree: int) -> list[Fraction]:
    """Digit-product fast path of the masked product for fractal inputs.

    Coefficient n is the product over base-q digits n_i of the ordinary
    product coefficient [x**n_i](a*b); only the window below q is needed.
    Raises NotFractal when either input fails the digit-multiplicative
    precondition through ``degree``.
    """
    check_fractal(a, q, degree)
    check_fractal(b, q, degree)
    window = [
        sum((_coeff(a, t) * _coeff(b, d - t) for t in range(d + 1)), ZERO) for d in range(min(q, degree + 1))
    ]
    return fractal_series(window, q, degree)
