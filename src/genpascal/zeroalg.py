"""Zero generalized Pascal matrices and their digit calculus.

The base pattern matrix of modulus q has entry 1 exactly when every base-q
digit of the row index dominates the corresponding digit of the column index
(the generalized Sierpinski matrix). On top of it sit the masked Toeplitz
algebra (a(x)|q) with its carryless convolution, the block matrices, and the
digit-product matrices built from the first q rows of the Pascal matrix.
The patterns and digit products are built from row n div q by
``digits.digit_product_rows``; ``digit_binom`` and ``t_coefficient`` are
their per-entry oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import comb, factorial
from operator import ge, mul
from typing import Sequence

from .digits import digit_product_rows, digits
from .errors import NotFractal, SizeMismatch
from .matrices import TriangularMatrix, build_from_c, hadamard, matmul
from .polynomials import P_ONE, Polynomial, w_poly
from .rationals import ZERO, to_view
from .report import Report, check_equal, merge_reports
from .sequences import CSequence

Series = Sequence[Fraction | int]


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


def sierpinski_matrix(q: int, size: int) -> TriangularMatrix:
    """Truncation of the base-q zero pattern matrix (Pascal mod 2 for q = 2):
    the digit product of the one-digit dominance block i >= j."""
    return TriangularMatrix.from_view(1, digit_product_rows(q, size, ge))


def kronecker(a: TriangularMatrix, b: TriangularMatrix) -> TriangularMatrix:
    """Kronecker product of lower-triangular truncations (size multiplies)."""
    da, ra = a.int_view()
    db, rb = b.int_view()
    nb = b.size
    # row (n1, n2) is row n1 of a times row n2 of b, padded with zeros to nb columns, cut after the diagonal
    padded = [row + (0,) * (nb - len(row)) for row in rb]
    rows = []
    for n in range(a.size * nb):
        n1, n2 = divmod(n, nb)
        rows.append([x * y for x in ra[n1] for y in padded[n2]][: n + 1])
    return TriangularMatrix.from_view(da * db, rows)


def sierpinski_selfsim_check(q: int, k: int) -> Report:
    """The leading q**(k+1) block, evaluated per entry, equals both Kronecker
    splits of itself (the row recursion of ``sierpinski_matrix`` is one of them)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s1 = sierpinski_matrix(q, q)
    sk = sierpinski_matrix(q, q**k)
    size = q ** (k + 1)
    big = TriangularMatrix.from_view(1, [[digit_binom(q, n, m) for m in range(n + 1)] for n in range(size)])
    return merge_reports("kron", [
        check_equal("kron", kronecker(s1, sk), big, q=q, k=k, order="coarse-first"),
        check_equal("kron", kronecker(sk, s1), big, q=q, k=k, order="fine-first"),
    ])


def _numerators(a: Series, size: int) -> tuple[int, list[int]]:
    """(D, x) = to_view of a_0..a_{size-1}, with a_n = 0 past the end of a."""
    return to_view([*a[:size], *repeat(0, size - len(a))])


def check_fractal(a: Series, q: int, degree: int) -> tuple[int, list[int]]:
    """Raise NotFractal unless a_d = a_{d mod q} * a_{d div q} through ``degree``
    (the coefficientwise form of a(x) = (sum_{n<q} a_n x^n) a(x^q)) with a_0 = 1,
    as x_d D = x_{d mod q} x_{d div q} on (D, x) = ``_numerators``, which it returns."""
    den, x = _numerators(a, max(degree, 0) + 1)
    if x[0] != den:
        raise NotFractal("a_0 must be 1")
    for d in range(q, degree + 1):
        if x[d] * den != x[d % q] * x[d // q]:
            raise NotFractal(f"digit-multiplicative condition fails at degree {d}")
    return den, x


def _extend(den: int, nums: list[int], q: int, degree: int) -> list[Fraction]:
    """``fractal_series`` of the base block nums / den, extending nums in place."""
    dens = [den] * len(nums)
    for n in range(q, degree + 1):
        nums.append(nums[n // q] * nums[n % q])
        dens.append(dens[n // q] * den)
    return list(map(Fraction, nums, dens))


def fractal_series(base: Series, q: int, degree: int) -> list[Fraction]:
    """The digit-multiplicative series a_n = a_{n div q} * a_{n mod q} through
    ``degree``, extended from its base block a_0 = 1, a_1, ..., a_{q-1}."""
    return _extend(*_numerators(base, min(len(base), degree + 1)), q, degree)


def masked_matrix(a: Series, q: int, size: int) -> TriangularMatrix:
    """Entries a_{n-m} masked by digit dominance: the rows of the
    Sierpinski pattern times the series, on its numerators."""
    if len(a) < size:
        raise SizeMismatch(f"need {size} series coefficients, got {len(a)}")
    den, x = _numerators(a, size)
    x.reverse()  # x[size - 1 - n + m] = D a_{n-m}
    rows = [list(map(mul, row, x[size - 1 - n :])) for n, row in enumerate(digit_product_rows(q, size, ge))]
    return TriangularMatrix.from_view(den, rows)


def masked_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
    """Product in the masked algebra: coefficient n is
    sum_m dominance(n,m) a_m b_{n-m}. Valid for arbitrary series.

    Runs on the numerators over the common denominators of a and b, with the
    dominance mask built by the digit recursion: one Fraction per coefficient."""
    size = degree + 1
    (da, nums), (db, rev) = _numerators(a, size), _numerators(b, size)
    rev.reverse()
    # coefficient n pairs a_m with b_{n-m}, that is with rev[degree - n + m]
    return [
        Fraction(sum(compress(map(mul, nums, rev[degree - n :]), row)), da * db)
        for n, row in enumerate(digit_product_rows(q, size, ge))
    ]


def carryless_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
    """Digit-product fast path of the masked product for fractal inputs.

    Coefficient n is the product over base-q digits n_i of the ordinary
    product coefficient [x**n_i](a*b); only the window below q is needed.
    Raises NotFractal when either input fails the digit-multiplicative
    precondition through ``degree``.
    """
    da, xa = check_fractal(a, q, degree)
    db, xb = check_fractal(b, q, degree)
    window = [sum(map(mul, xa[: d + 1], reversed(xb[: d + 1]))) for d in range(min(q, degree + 1))]
    return _extend(da * db, window, q, degree)


def masked_row(a: Series, q: int, n: int) -> Polynomial:
    """Row n of (a(x)|q) as the digit product of the base rows:
    u_n(x) = prod_i u_{n_i}(x**(q**i)) with u_t = sum_m a_{t-m} x**m, t < q."""
    check_fractal(a, q, n)
    den, x = _numerators(a, q)
    base = [Polynomial.from_view(den, x[t::-1]) for t in range(q)]
    out = P_ONE
    for i, d in enumerate(digits(n, q)):
        if d:
            out = out * base[d].substitute_power(q**i)
    return out


def block_matrix(a: Series, b: Series, q: int, k: int, size: int) -> TriangularMatrix:
    """Block form: entry (Q*n+i, Q*m+j) = a_{n-m} dom(n,m) b_{i-j} dom(i,j)
    with Q = q**k; the inner part b must live below Q and size must tile.
    That is the Kronecker product of (a|q) of size size/Q with (b|q) of size Q."""
    block = q**k
    if len(b) > block:
        raise SizeMismatch(f"inner series must have degree < {block}")
    if size % block:
        raise SizeMismatch(f"size {size} is not a multiple of {block}")
    outer = size // block
    a, b = list(a) + [ZERO] * (outer - len(a)), list(b) + [ZERO] * (block - len(b))
    return kronecker(masked_matrix(a, q, outer), masked_matrix(b, q, block))


def block_product_check(
    a: Series, b: Series, c: Series, d: Series, q: int, k: int, size: int
) -> Report:
    """Ordinary product of two block matrices against the direct build of
    (a o c, b o d | q, k), with o the masked convolution."""
    left = matmul(block_matrix(a, b, q, k, size), block_matrix(c, d, q, k, size))
    block = q**k
    ac = masked_convolve(a, c, q, size // block - 1)
    bd = masked_convolve(b, d, q, block - 1)
    return check_equal("block-product", left, block_matrix(ac, bd, q, k, size))


def t_coefficient(q: int, n: int, m: int) -> Fraction:
    """Product of ordinary binomials of the base-q digit pairs."""
    if m > n:
        return ZERO
    dn = digits(n, q)
    dm = digits(m, q)
    dm += [0] * (len(dn) - len(dm))
    value = 1
    for x, y in zip(dn, dm):
        value *= comb(x, y)
    return Fraction(value)


def t_matrix(q: int, size: int) -> TriangularMatrix:
    """Digit-product matrix seeded by the first q rows of the Pascal matrix:
    T(q n' + i, q m' + j) = C(i, j) T(n', m'), built row by row on ints."""
    return TriangularMatrix.from_view(1, digit_product_rows(q, size, comb))


def t_matrix_via_kronecker(q: int, size: int) -> TriangularMatrix:
    """Iterated Kronecker powers of the q-row Pascal block, truncated."""
    seed = TriangularMatrix.from_view(1, [[comb(n, m) for m in range(n + 1)] for n in range(q)])
    acc = seed
    while acc.size < size:
        acc = kronecker(seed, acc)
    return acc.truncate(size)


def t_matrix_via_overlay(q: int, size: int) -> TriangularMatrix:
    """Dominance mask applied to the matrix of the digit-factorial series
    c_n = prod_i 1/(n_i!)."""
    coeffs = fractal_series([Fraction(1, factorial(d)) for d in range(q)], q, size - 1)
    base = build_from_c(CSequence.explicit(coeffs), size)
    return hadamard(sierpinski_matrix(q, size), base)


def t_row(q: int, n: int) -> Polynomial:
    """Row generating polynomial prod_i (1 + x**(q**i))**n_i."""
    out = P_ONE
    for i, d in enumerate(digits(n, q)):
        if d:
            factor = w_poly(1).substitute_power(q**i)
            for _ in range(d):
                out = out * factor
    return out


def t_threeway_check(q: int, size: int) -> Report:
    """Digit products, Kronecker construction and mask overlay must agree."""
    direct = t_matrix(q, size)
    return merge_reports("t-threeway", [
        check_equal("t-kronecker", t_matrix_via_kronecker(q, size), direct, q=q),
        check_equal("t-overlay", t_matrix_via_overlay(q, size), direct, q=q),
    ])
