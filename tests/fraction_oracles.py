"""The Fraction code that integer kernels replaced, kept as test oracles.

``FractionPolynomial`` is ``genpascal.polynomials.Polynomial`` as it was when
it stored its coefficients as Fractions, renamed and otherwise unchanged but
for ``truncate``, which gives the zero polynomial for a negative degree; its
``__repr__`` still reads ``Polynomial([...])``. It is the oracles'
polynomial arithmetic: the library's ``Polynomial`` keeps only products and
``x -> x**q``, so the sums, differences, shifts and truncations of the
oracles below, and ``w_poly`` (1 + x + ... + x**m), are ``FractionPolynomial``s.
A test compares one with a library ``Polynomial`` by ``coeffs``.
``masked_convolve`` is the Fraction loop of ``genpascal.zeroalg.masked_convolve``
over ``digit_binom``, and ``gbinom`` the ratio of Fraction factorials.

``build_from_c``, ``hadamard_inverse``, ``masked_matrix``, ``check_fractal``,
``fractal_series`` and ``carryless_convolve`` are the library functions of
those names as they were when they made one Fraction per entry or
coefficient; ``materialize_hadamard`` is the Hadamard family's materialize,
which streamed the per-entry products of the factors through ``from_fn``.
Their matrices go through the value constructor.

``pascal_convolve``, ``gbinom_via_recurrence``, ``geometric``, ``b_from_c``
(``BSequence.from_c``) and ``from_fn`` (``TriangularMatrix.from_fn``) are
library code that only tests reached, moved here unchanged but for
``pascal_convolve`` taking and giving ``FractionPolynomial``s: the series
convolution of a matrix, the addition-rule form of ``gbinom``, the geometric
series, the first column of a c-sequence matrix as weights, and a matrix from
its per-entry function.

``c_geometric``, ``c_from_b``, ``c_fractal`` (the ``CSequence`` class
methods ``geometric``, ``from_b`` and ``fractal``) and ``phi_q_series``
(``genpascal.special.phi_q_series``) are library code that only tests
reached, moved here unchanged but for ``phi_q_series``, which no longer
refuses q < 2 or phi = 0: the geometric series,
the coefficients c_n = 1 / b_n! of a weight sequence, those of the weight-q
fractal family, and the coefficients c_{qn+i} = phi**(-n) of the mask
matrix of modulus q and weight phi.

``fractal_entry`` and ``t_coefficient`` are the
library's per-entry kernels as they were when they coerced phi and built
their Fraction through ``Fraction(...)`` on every call (``t_coefficient``
over the digit lists of ``digits``); ``from_c_entry`` and ``hadamard_entry``
are the ``from-c`` and ``hadamard`` per-entry forms of ``specs.FAMILIES``,
the Fraction quotient c_m c_{n-m} / c_n and the Fraction product of the
factors' entries. ``qumbral_entry`` is the ``qumbral`` per-entry form as it
was before the Gaussian binomial replaced it: entry (n, m) is coefficient
n - m of the series 1 / prod_{i=0..m} (1 - q**i x), divided out one linear
factor at a time by ``divide_linear``, which ``genpascal.polynomials`` held. ``fraction_q_umbral_matrix``
and ``fraction_q_umbral_inverse`` are the q-umbral builders as Fraction loops:
the columns of the matrix divide the series by 1 - q**c x one at a time, and
row n + 1 of the inverse is row n times x - q**n.

``digit_product_rows`` and ``carry_count_rows`` are the digit kernels of
``genpascal.digits`` as they were when they spent one interpreter step per
entry, before they copied whole strided slices, and ``matrix_to_pbm`` is the
PBM writer as it was when it called ``bool`` on every entry.

``fractal_row`` and ``fractal_column`` are the recurrences as they were when
each call rebuilt the rows or columns it recursed on, with no table shared
between calls, as sums of ``FractionPolynomial`` products, and
``identity_check`` is the shift-identity check as it was when it remade the
products of shift q for every p and compared one q at a time.

``carry_count`` and ``digit_binom`` are the library's digit loops as they
were before their base-2 forms (Legendre's bit counts, Lucas's bit mask):
``carry_count`` counts the moduli q**k with n mod q**k < m mod q**k at every
base, and ``digit_binom`` compares digits until both indices run out, so it
does not return for n < 0.

``masked_row`` and ``t_row`` are library code that only tests reached: the
row polynomials of the masked matrix and of the digit-product matrix as
products of ``FractionPolynomial``s over the base-q digits.
``dominance_row`` is the per-entry build of a row of the zero pattern that
the Kronecker self-similarity check used, one ``digit_binom`` per entry.

``value_form`` writes a value as one of the other inputs the value
constructors coerce through ``Fraction()``.

``sierpinski_oracle`` and ``block_oracle`` are the per-entry forms of
``sierpinski_matrix`` and ``block_matrix`` over ``digit_binom``;
``oracle_from_rows``, ``oracle_from_json`` and ``oracle_from_csv`` are the
readers as they were when they parsed each distinct entry to a Fraction and
used the value constructor; ``_mobius`` is the Moebius function by trial
division, for the explicit Moebius inversion of the first column.

``recompose`` is ``PhiCoordinates.recompose`` as it was when it computed
every column of each row, before it computed the first half and mirrored it.
``random_c_sequence`` and ``random_fractal_series`` are the verify suites'
random draws (``genpascal.verify``) as they were when they built a fresh
list of candidate numerators for every value drawn.

``_extend`` and ``format_series`` are the series' per-coefficient integer
form as ``genpascal.zeroalg`` and ``genpascal.rationals`` held it before a
series became one view over a common denominator: ``_extend`` returns
(nums, dens) with coefficient n equal to nums[n] / dens[n], and
``format_series`` writes those values as comma-separated wire text.
``format_rows`` is ``genpascal.rationals.format_rows`` as it was before it
formatted half of each palindromic row and mirrored it: every entry of every
row goes through ``str`` (den 1) or the cached ``_text`` (den > 1).

``suite_identities``, ``suite_lucas``, ``suite_kron``, ``suite_recurrences``,
``suite_umbral`` and ``suite_convolution`` are the suite functions of
``genpascal.verify`` as they were before a suite became a row of
``verify.SUITES``: each merges its own sub-reports under its name. They call
the library's checks, but for ``identity_check``, which here is the oracle
above; it gives the library's reports.

``mul_trunc``, ``carryless_view``, ``fractal_c_check`` (with its
``_w_factor_coeffs``) and ``b_functional_equation_check`` are the library
functions of those names as they were before every product of two
coefficient lists went through ``polynomials.mul_ints``: ``mul_trunc`` is
the per-coefficient Fraction loop, ``carryless_view`` sums its base block
degree by degree, and the two series checks build their factors and the
expansion of x w_{q-2}(x) / (1 - x**q) coefficient by coefficient. They are
unchanged but for ``math.factorial``, which is spelled out here because
``factorial`` above is the generalized one.

``ReportDataclass`` and ``GPSpecDataclass`` are ``genpascal.report.Report``
and ``genpascal.specs.GPSpec`` as they were when they were frozen
dataclasses: their fields and ``GPSpec``'s checks and conversions, renamed,
without the methods, which the library classes keep. They pin the ``==``,
``hash``, ``repr``, construction and immutability of ``rationals.Value``.

``fractions_made`` is no oracle: it counts the Fractions constructed while
a call runs, by a profile hook on ``Fraction.__new__``, so a test can pin a
path that builds none.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import comb, lcm, prod
from operator import ge, mul
from typing import Any, Callable, Iterable, Sequence

from genpascal import special, zeroalg
from genpascal.digits import digits, valuation
from genpascal.errors import NotFractal, SizeMismatch, ZeroEntry, ZeroFactor
from genpascal.fractal import _primes_upto, fast_gbinom_fractal
from genpascal.matrices import TriangularMatrix, _columns, _first_difference, identity_matrix, matmul
from genpascal.rationals import ONE, ZERO, _text, _too_long_to_print, parse_rational
from genpascal.report import Report, check_equal, merge_reports
from genpascal.sequences import BSequence, CSequence, fractal_b
from genpascal.specs import FAMILIES
from genpascal.verify import convolution_check, golden_family, lucas_check, recurrence_check
from genpascal.zeroalg import Series, _numerators


def carry_count(q: int, n: int, m: int) -> int:
    """Number of moduli q**k (k >= 1) with n mod q**k < m mod q**k; the base
    check of the per-entry forms."""
    if q < 2:
        raise ValueError("q must be >= 2")
    count = 0
    power = q
    while power <= n:
        if n % power < m % power:
            count += 1
        power *= q
    return count


def digit_binom(q: int, n: int, m: int) -> int:
    """1 iff every base-q digit of n dominates the digit of m, else 0."""
    if q < 2:
        raise ValueError("q must be >= 2")
    while n or m:
        if n % q < m % q:
            return 0
        n //= q
        m //= q
    return 1


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
        """Drop terms of degree > ``degree``; a negative degree drops them all."""
        return FractionPolynomial(self.coeffs[: max(degree + 1, 0)])

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def w_poly(m: int) -> FractionPolynomial:
    """1 + x + ... + x**m, with the zero polynomial for m = -1."""
    return FractionPolynomial([1] * (m + 1))


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
    return from_fn(size, spec.entry)


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


def _extend(den: int, nums: list[int], q: int, degree: int) -> tuple[list[int], list[int]]:
    """The integer view (nums, dens) of ``fractal_series`` of the base block
    nums / den: coefficient n is nums[n] / dens[n]. Extends nums in place."""
    dens = [den] * len(nums)
    for n in range(q, degree + 1):
        nums.append(nums[n // q] * nums[n % q])
        dens.append(dens[n // q] * den)
    return nums, dens


def format_series(nums: Iterable[int], dens: Iterable[int]) -> str:
    """The values nums[n] / dens[n] (dens >= 1) as comma-separated wire text, equal
    to joining ``format_rational`` of each and built without a Fraction."""
    try:
        return ",".join(map(_text, nums, dens))
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None


def format_rows(den: int, rows: Iterable[Iterable[int]]) -> list[list[str]]:
    """The wire text of each entry x / den of an integer view, equal to
    ``format_rational`` of the exact value and built without a Fraction."""
    text = cache(lambda x: _text(x, den))  # each distinct numerator is reduced once
    try:
        return [list(map(str if den == 1 else text, row)) for row in rows]
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None


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


def masked_row(a: Series, q: int, n: int) -> FractionPolynomial:
    """Row n of (a(x)|q) as the digit product of the base rows:
    u_n(x) = prod_i u_{n_i}(x**(q**i)) with u_t = sum_m a_{t-m} x**m, t < q."""
    check_fractal(a, q, n)
    den, x = _numerators(a, q)
    base = [FractionPolynomial(Fraction(v, den) for v in x[t::-1]) for t in range(q)]
    out = FractionPolynomial([1])
    for i, d in enumerate(digits(n, q)):
        if d:
            out = out * base[d].substitute_power(q**i)
    return out


def from_fn(size: int, fn: Callable[[int, int], Fraction | int]) -> TriangularMatrix:
    return TriangularMatrix([[fn(n, m) for m in range(n + 1)] for n in range(size)])


def b_from_c(c) -> BSequence:
    # First column of the matrix built from c: b_n = c_1 c_{n-1} / c_n, c_1 = 1.
    return BSequence("from_c", lambda n: c[n - 1] / c[n])


def c_geometric() -> CSequence:
    return CSequence("geometric", lambda n: ONE)


def c_from_b(b: BSequence) -> CSequence:
    return CSequence(f"from_b({b.kind})", lambda n: ONE / b.factorial(n))


def c_fractal(q: int) -> CSequence:
    seq = c_from_b(BSequence.fractal(q, q))
    seq.kind = f"fractal({q})"
    return seq


def phi_q_series(phi: Fraction | int, q: int) -> CSequence:
    phi = Fraction(phi)
    return CSequence(f"phi_q({phi},{q})", lambda n: ONE / phi ** (n // q))


def geometric(ratio: Fraction, degree: int) -> list[Fraction]:
    """Coefficients of 1/(1 - ratio*x) through ``degree``."""
    out = [ONE]
    for _ in range(degree):
        out.append(out[-1] * ratio)
    return out


def gbinom_via_recurrence(b: BSequence, n: int, m: int) -> Fraction:
    """Same value as gbinom, built by dynamic programming on the addition rule
    C(n,m) = C(n-1,m-1) + (b_n - b_m)/b_{n-m} * C(n-1,m)."""
    if m < 0 or m > n:
        return ZERO
    prev = [ONE]
    for k in range(1, n + 1):
        row = [ONE]
        top = min(k, m)
        for j in range(1, top + 1):
            left = prev[j - 1]
            if j == k:
                row.append(left)
                continue
            term = b[k - j]
            if term == 0:
                raise ZeroFactor(f"b_{k - j} = 0 in {b.kind}")
            row.append(left + (b[k] - b[j]) / term * prev[j])
        prev = row
    return prev[m]


def pascal_convolve(
    a: TriangularMatrix, f: FractionPolynomial, g: FractionPolynomial
) -> FractionPolynomial:
    """Product in the series algebra attached to the matrix:
    coefficient n of the result is sum_m (n,m) f_m g_{n-m}, for n < size."""
    if f.degree >= a.size or g.degree >= a.size:
        raise SizeMismatch("inputs must have degree < matrix size")
    out = []
    for n in range(a.size):
        out.append(sum((a.rows[n][m] * f.coefficient(m) * g.coefficient(n - m) for m in range(n + 1)), ZERO))
    return FractionPolynomial(out)


def fractal_entry(phi: Fraction | int, q: int, n: int, m: int) -> Fraction:
    """Entry (n,m) of the fractal family, phi ** carry_count(q, n, m) inside
    the triangle and 0 outside; at phi = 0 it is the digit dominance mask."""
    k = carry_count(q, n, m)
    return Fraction(phi) ** k if 0 <= m <= n else ZERO


def t_coefficient(q: int, n: int, m: int) -> Fraction:
    """Product of ordinary binomials of the base-q digit pairs."""
    if not 0 <= m <= n:
        return ZERO
    dn = digits(n, q)
    dm = digits(m, q)
    dm += [0] * (len(dn) - len(dm))
    value = 1
    for x, y in zip(dn, dm):
        value *= comb(x, y)
    return Fraction(value)


def t_row(q: int, n: int) -> FractionPolynomial:
    """Row generating polynomial prod_i (1 + x**(q**i))**n_i."""
    out = FractionPolynomial([1])
    for i, d in enumerate(digits(n, q)):
        if d:
            factor = w_poly(1).substitute_power(q**i)
            for _ in range(d):
                out = out * factor
    return out


def from_c_entry(s, n: int, m: int) -> Fraction:
    return s.c[m] * s.c[n - m] / s.c[n]


def hadamard_entry(s, n: int, m: int) -> Fraction:
    return prod((f.entry(n, m) for f in s.factors), start=ONE)


def divide_linear(series: list[Fraction], ratio: Fraction) -> None:
    """Divide the truncated series in place by 1 - ratio*x."""
    for k in range(1, len(series)):
        series[k] += ratio * series[k - 1]


def qumbral_entry(s, n: int, m: int) -> Fraction:
    series = [ONE] + [ZERO] * (n - m)
    ratio = ONE
    for _ in range(m + 1):
        divide_linear(series, ratio)
        ratio *= s.q
    return series[n - m]


def fraction_q_umbral_matrix(q, size):
    """The Fraction form of q_umbral_matrix: column c divides the series by 1 - q**c x."""
    q = Fraction(q)
    rows = [[] for _ in range(size)]
    series = [Fraction(1)] + [Fraction(0)] * (size - 1)
    ratio = Fraction(1)
    for col in range(size):
        divide_linear(series, ratio)
        for row, value in enumerate(series, col):
            rows[row].append(value)
        series.pop()
        ratio *= q
    return TriangularMatrix(rows)


def fraction_q_umbral_inverse(q, size):
    """The Fraction form of q_umbral_inverse: row n + 1 is row n times x - q**n."""
    q = Fraction(q)
    rows = []
    current = [Fraction(1)]
    for n in range(size):
        rows.append(current[:])
        nxt = [Fraction(0)] * (len(current) + 1)
        ratio = q**n
        for i, c in enumerate(current):
            nxt[i + 1] += c
            nxt[i] -= c * ratio
        current = nxt
    return TriangularMatrix(rows)


def dominance_row(q: int, n: int) -> list[int]:
    """Row n of the base-q zero pattern, one ``digit_binom`` per entry."""
    return [zeroalg.digit_binom(q, n, m) for m in range(n + 1)]


def digit_product_rows(
    q: int, size: int, block: Callable[[int, int], int], top: Sequence[Sequence[int]] | None = None
) -> list[list[int]]:
    """Rows 0..size-1 of the multiplicative digit recursion on ints,

        row n = [t * c for t in top[n div q] for c in block(n mod q, 0..k-1)][: n + 1],

    so entry (q n' + i, q m' + j) is block(i, j) * top[n'][m']. Without ``top``
    the family is self-similar: top is the rows being built, from row 0 = [1].
    Only digits below k = min(q, size) occur, so a huge q costs no more than size.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    k = min(q, size)
    table = [[block(i, j) for j in range(k)] for i in range(k)]
    if top is None:
        rows = top = [[1]]
    else:
        rows = []
    for n in range(len(rows), size):
        n1, i = divmod(n, q)
        rows.append([t * c for t in top[n1] for c in table[i]][: n + 1])
    return rows[:size]


def carry_count_rows(q: int, size: int) -> list[list[int]]:
    """Carry counts of rows 0..size-1 as ints, row n from row n div q by the
    additive digit recursion (see ``genpascal.fractal``)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    step = [1 + valuation(m1 + 1, q) for m1 in range(size // q)]  # read once per q entries
    counts = [[0]]
    for n in range(1, size):
        n1, i = divmod(n, q)
        prev = counts[n1]
        row = []
        for m1 in range(n1):
            row += [prev[m1]] * (i + 1) + [step[m1] + prev[m1 + 1]] * (q - 1 - i)
        counts.append(row + [prev[n1]] * (i + 1))
    return counts[:size]


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def matrix_to_pbm(matrix: TriangularMatrix) -> str:
    """P1 bitmap of the nonzero pattern, row n padded with zeros beyond the
    diagonal to the full width."""
    size = matrix.size
    _, rows = matrix.int_view()
    zeros = bytes(size)
    lines = [b"P1", b"%d %d" % (size, size)]
    lines += [(bytes(map(bool, row)) + zeros[n + 1 :]).translate(_BITS) for n, row in enumerate(rows)]
    return (b"\n".join(lines) + b"\n").decode("ascii")


def fractal_row(q: int, n: int) -> FractionPolynomial:
    """Row n of the weight-q fractal matrix, built only from the recurrence
    u_{qn+m} = w_m(x) u_n(x^q) + q b_n x^{m+1} w_{q-2-m}(x) u_{n-1}(x^q)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if n == 0:
        return FractionPolynomial([1])
    n1, m = divmod(n, q)
    if n1 == 0:
        return w_poly(m)  # b_0 = 0 kills the second term
    term = w_poly(m) * fractal_row(q, n1).substitute_power(q)
    tail = w_poly(q - 2 - m)
    if not tail.is_zero():
        bn = q ** valuation(n1, q)  # b_{n1} of the weight-q family
        term = term + (q * bn) * tail.shift(m + 1) * fractal_row(q, n1 - 1).substitute_power(q)
    return term


def fractal_column(q: int, n: int, size: int) -> FractionPolynomial:
    """Column n of the weight-q fractal matrix truncated at degree size-1,
    built from g_{qn+m} = x^m w_{q-1-m}(x) g_n(x^q) + q b_{n+1} w_{m-1}(x) g_{n+1}(x^q),
    seeded by direct evaluation for n < q. The inner columns are needed only
    through degree (size-1) div q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if size < 1:
        return FractionPolynomial()
    if n < q:
        return FractionPolynomial(fast_gbinom_fractal(q, k, n) for k in range(size))
    n1, m = divmod(n, q)
    inner = (size - 1) // q + 1
    term = (w_poly(q - 1 - m) * fractal_column(q, n1, inner).substitute_power(q)).shift(m)
    lead = w_poly(m - 1)
    if not lead.is_zero():
        bn = q ** valuation(n1 + 1, q)
        term = term + (q * bn) * lead * fractal_column(q, n1 + 1, inner).substitute_power(q)
    return term.truncate(size - 1)



def identity_check(a: TriangularMatrix, suite: str = "identities") -> Report:
    """Check the defining entry identities on the whole truncation.

    (n,0) = 1 and (n,m) = (n,n-m) for every stored entry, and the six-factor
    shift identity
        (n+q,q)(n+p,m+p)(m+p,p) = (n+p,p)(n+q,m+q)(m+q,q)
    for all 0 <= m <= n and shifts 0 <= p < q with n+q < size. Equal shifts
    make both sides identical and swapping p,q swaps the sides, so scanning
    p < q is exhaustive. Returns the first counterexample found.
    """
    den, rows = a.int_view()
    checked = 0
    for n, row in enumerate(rows):
        if row[0] != den:
            ce = {"identity": "column0", "n": n, "value": str(a.rows[n][0])}
            return Report(suite, False, ce, checked + 1)
        if row != row[::-1]:
            m = _first_difference(row, row[::-1])
            return Report(suite, False, {"identity": "symmetry", "n": n, "m": m}, checked + m + 2)
        checked += n + 2
    # on the numerators each side is den**3 times its value, so the sides agree exactly when the entries do
    cols = _columns(rows)
    for n in range(a.size):
        for p in range(a.size - n):
            np_ = rows[n + p]
            left = list(map(mul, np_[p:], cols[p]))  # (n+p,m+p)(m+p,p) for m = 0..n
            for q in range(p + 1, a.size - n):
                nq = rows[n + q]
                lhs = list(map(mul, left, repeat(nq[q])))
                rhs = list(map(mul, map(mul, nq[q:], cols[q]), repeat(np_[p])))
                if lhs != rhs:
                    m = _first_difference(lhs, rhs)
                    return Report(
                        suite, False, {"identity": "shift", "n": n, "m": m, "p": p, "q": q}, checked + m + 1
                    )
                checked += n + 1
    return Report(suite, True, None, checked)


def sierpinski_oracle(q, size):
    return from_fn(size, lambda n, m: digit_binom(q, n, m))


def block_oracle(a, b, q, k, size):
    """The per-entry form of block_matrix:
    (Q n + i, Q m + j) -> a_{n-m} dom(n,m) b_{i-j} dom(i,j), Q = q**k."""
    block = q**k
    coeff = lambda s, d: Fraction(s[d]) if d < len(s) else Fraction(0)

    def fn(row, col):
        n, i = divmod(row, block)
        m, j = divmod(col, block)
        if i < j or not digit_binom(q, n, m) or not digit_binom(q, i, j):
            return Fraction(0)
        return coeff(a, n - m) * coeff(b, i - j)

    return from_fn(size, fn)


def oracle_from_rows(rows) -> TriangularMatrix:
    """The Fraction reader the integer-view readers replaced: each distinct
    string entry parsed once to a Fraction, then the value constructor."""
    parsed: dict[str, Fraction] = {}

    def parse(entry) -> Fraction:
        if type(entry) is not str:
            return parse_rational(entry)
        value = parsed.get(entry)
        if value is None:
            value = parsed[entry] = parse_rational(entry)
        return value

    return TriangularMatrix([[parse(entry) for entry in row] for row in rows])


def oracle_from_json(text: str) -> TriangularMatrix:
    doc = json.loads(text)
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('a matrix document is a JSON object whose "rows" is a list of lists')
    matrix = oracle_from_rows(rows)
    if matrix.size != doc.get("size", matrix.size):
        raise ValueError("size field disagrees with row count")
    return matrix


def oracle_from_csv(text: str) -> TriangularMatrix:
    return oracle_from_rows(line.split(",") for line in text.strip().splitlines() if line.strip())


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def recompose(coords, size: int) -> TriangularMatrix:
    weights = [(q, beta.numerator, beta.denominator) for q, beta in sorted(coords.betas.items())]
    den = prod(d for _, _, d in weights)
    above = den  # prod of d_q over the moduli q > n
    cut = 0  # weights[:cut] are the moduli q <= n
    rows = []
    for n in range(size):
        while cut < len(weights) and weights[cut][0] <= n:
            above //= weights[cut][2]
            cut += 1
        row = [above] * (n + 1)
        for q, a, d in weights[:cut]:
            r = n % q
            row = [x * (a if r < m % q else d) for m, x in enumerate(row)]
        rows.append(row)
    return TriangularMatrix.from_view(den, rows)


def random_fractal_series(rng: random.Random, q: int, degree: int) -> list[Fraction]:
    base = [ONE] + [
        Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6)) for _ in range(q - 1)
    ]
    return zeroalg.fractal_series(base, q, degree)


def random_c_sequence(rng: random.Random, size: int) -> CSequence:
    values = [ONE, ONE] + [
        Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
        for _ in range(size - 2)
    ]
    return CSequence.explicit(values)


def suite_identities(size: int) -> Report:
    reports = []
    for name, matrix in golden_family(size):
        sub = identity_check(matrix, suite=f"identities[{name}]")
        reports.append(sub)
    return merge_reports("identities", reports)


def suite_lucas(size: int) -> Report:
    reports = [lucas_check(size)]
    for q in (2, 3):
        reports.append(zeroalg.t_threeway_check(q, size))
    return merge_reports("lucas", reports)


def suite_kron(size: int) -> Report:
    reports = []
    for q in (2, 3):
        k = 1
        while q ** (k + 1) <= size:
            reports.append(zeroalg.sierpinski_selfsim_check(q, k))
            k += 1
    return merge_reports("kron", reports)


def suite_recurrences(size: int) -> Report:
    return merge_reports("recurrences", [recurrence_check(q, size) for q in (2, 3, 5)])


def suite_umbral(size: int) -> Report:
    reports = []
    ident = identity_matrix(size)
    for qv in (-1, 0, 1, 2, 3):
        product = matmul(special.q_umbral_matrix(qv, size), special.q_umbral_inverse(qv, size))
        reports.append(check_equal("umbral", product, ident, q=qv))
    # the q = -1 member coincides with the modulus-2 overlay
    overlay = special.zero_overlay_matrix(2, size)
    reports.append(check_equal("umbral-overlay", special.q_umbral_matrix(-1, size), overlay, q=-1))
    return merge_reports("umbral", reports)


def suite_convolution(size: int) -> Report:
    return merge_reports("convolution", [convolution_check(q, size) for q in (2, 3)])


def mul_trunc(a: Sequence[Fraction], b: Sequence[Fraction], degree: int) -> list[Fraction]:
    """Coefficient list of a*b through ``degree``."""
    out = [ZERO] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                out[i + j] += x * y
    return out


def carryless_view(a, b, q: int, degree: int):
    """The view of the carryless product through ``degree`` of two checked
    views (D, x) (``check_fractal``): its base block is the ordinary product's
    coefficients below q over da * db, which ``_extend`` extends. A view needs
    only its coefficients below q."""
    (da, xa), (db, xb) = a, b
    window = [sum(map(mul, xa[: d + 1], reversed(xb[: d + 1]))) for d in range(min(q, degree + 1))]
    return zeroalg._extend(da * db, window, q, degree)


def _w_factor_coeffs(q: int, level: int, degree: int) -> list[Fraction]:
    """Coefficients of w_{q-1}(x**(q**level) / q**((q**level - 1)/(q - 1)))."""
    step = q**level
    scale = ONE / Fraction(q) ** ((step - 1) // (q - 1))
    out = [ZERO] * (degree + 1)
    power = ONE
    for t in range(q):
        if t * step > degree:
            break
        out[t * step] = power
        power *= scale
    return out


def fractal_c_check(q: int, degree: int) -> Report:
    """Two series identities for the coefficient sequence 1/b_n!:

    (a) the partial product of the w-factors through q**level <= degree equals
        sum x**n/b_n! coefficientwise (later factors start above the cut);
    (b) the coefficientwise product over primes p <= degree of the weight-p
        sequences is the exponential series 1/n!.
    """
    b = BSequence.fractal(q, q)
    target = [ONE / b.factorial(n) for n in range(degree + 1)]
    product = [ONE] + [ZERO] * degree
    level = 0
    while q**level <= degree:
        product = mul_trunc(product, _w_factor_coeffs(q, level, degree), degree)
        level += 1
    prime_seqs = [BSequence.fractal(p, p) for p in _primes_upto(degree)]
    hadamard = []
    for n in range(degree + 1):
        value = ONE
        for seq in prime_seqs:
            value *= ONE / seq.factorial(n)
        hadamard.append(value)
    exponential = [Fraction(1, math.factorial(n)) for n in range(degree + 1)]
    return merge_reports("series-product", [
        check_equal("series-product", product, target, q=q),
        check_equal("series-hadamard", hadamard, exponential),
    ])


def b_functional_equation_check(q: int, degree: int) -> Report:
    """b(x) = w_{q-2}(x) x / (1 - x**q) + q b(x**q), coefficientwise through
    ``degree``, with both sides expanded independently."""
    lhs = [ZERO] + [fractal_b(q, q, n) for n in range(1, degree + 1)]
    rhs = [ZERO] * (degree + 1)
    w = w_poly(q - 2).coeffs
    for s in range(0, degree // q + 1):  # expansion of 1/(1 - x**q)
        for t, cw in enumerate(w):
            d = q * s + t + 1  # the extra x shift
            if d <= degree:
                rhs[d] += cw
    for n in range(q, degree + 1, q):
        rhs[n] += q * lhs[n // q]
    return check_equal("b-functional", lhs, rhs, q=q)


def fractions_made(call: Callable[[], object]) -> int:
    """The number of ``Fraction.__new__`` calls while ``call()`` runs."""
    code = Fraction.__new__.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@dataclass(frozen=True)
class ReportDataclass:
    suite: str
    passed: bool
    counterexample: dict[str, Any] | None = None
    checked: int = 0


@dataclass(frozen=True)
class GPSpecDataclass:
    kind: str  # a key of FAMILIES
    c: CSequence | None = None
    phi: Fraction | None = None  # stored as a Fraction
    q: int | None = None  # the q-umbral families take a rational q, stored as a Fraction
    factors: tuple["GPSpecDataclass", ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if self.phi is not None:
            object.__setattr__(self, "phi", Fraction(self.phi))
        if self.kind in ("qumbral", "qumbral-inverse") and self.q is not None:
            object.__setattr__(self, "q", Fraction(self.q))
        for name, least in FAMILIES[self.kind][2].items():
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"spec kind {self.kind!r} requires {name}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")
