"""Zero generalized Pascal matrices and their digit calculus.

The base pattern matrix of modulus q has entry 1 exactly when every base-q
digit of the row index dominates the corresponding digit of the column index
(the generalized Sierpinski matrix). On top of it sit the masked Toeplitz
algebra (a(x)|q) with its carryless convolution, the block matrices, and the
digit-product matrices built from the first q rows of the Pascal matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .digits import digits
from .errors import NotFractal, SizeMismatch
from .matrices import TriangularMatrix, build_from_c, hadamard, matmul
from .polynomials import P_ONE, Polynomial
from .rationals import ONE, ZERO
from .report import Report, merge_reports
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
    """Truncation of the base-q zero pattern matrix (Pascal mod 2 for q = 2)."""
    return TriangularMatrix.from_fn(size, lambda n, m: digit_binom(q, n, m))


def kronecker(a: TriangularMatrix, b: TriangularMatrix) -> TriangularMatrix:
    """Kronecker product of lower-triangular truncations (size multiplies)."""
    nb = b.size
    return TriangularMatrix.from_fn(
        a.size * nb,
        lambda n, m: a.entry(n // nb, m // nb) * b.entry(n % nb, m % nb),
    )


def sierpinski_selfsim_check(q: int, k: int) -> Report:
    """The leading q**(k+1) block equals both Kronecker splits of itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s1 = sierpinski_matrix(q, q)
    sk = sierpinski_matrix(q, q**k)
    big = sierpinski_matrix(q, q ** (k + 1))
    checked = 2 * big.size * (big.size + 1) // 2
    if kronecker(s1, sk) != big:
        return Report("kron", False, {"q": q, "k": k, "order": "coarse-first"}, checked)
    if kronecker(sk, s1) != big:
        return Report("kron", False, {"q": q, "k": k, "order": "fine-first"}, checked)
    return Report("kron", True, None, checked)


def _coeff(a: Series, n: int) -> Fraction:
    return Fraction(a[n]) if 0 <= n < len(a) else ZERO


def check_fractal(a: Series, q: int, degree: int) -> None:
    """Raise NotFractal unless a_d = a_{d mod q} * a_{d div q} through ``degree``
    (the coefficientwise form of a(x) = (sum_{n<q} a_n x^n) a(x^q)) with a_0 = 1."""
    if _coeff(a, 0) != 1:
        raise NotFractal("a_0 must be 1")
    for d in range(q, degree + 1):
        if _coeff(a, d) != _coeff(a, d % q) * _coeff(a, d // q):
            raise NotFractal(f"digit-multiplicative condition fails at degree {d}")


def masked_matrix(a: Series, q: int, size: int) -> TriangularMatrix:
    """Entries a_{n-m} masked by digit dominance."""
    if len(a) < size:
        raise SizeMismatch(f"need {size} series coefficients, got {len(a)}")
    return TriangularMatrix.from_fn(
        size, lambda n, m: _coeff(a, n - m) if digit_binom(q, n, m) else ZERO
    )


def masked_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
    """Product in the masked algebra: coefficient n is
    sum_m dominance(n,m) a_m b_{n-m}. Valid for arbitrary series."""
    out = []
    for n in range(degree + 1):
        out.append(
            sum((_coeff(a, m) * _coeff(b, n - m) for m in range(n + 1) if digit_binom(q, n, m)), ZERO)
        )
    return out


def carryless_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
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
    out = [ONE]
    for n in range(1, degree + 1):
        value = ONE
        for d in digits(n, q):
            value *= window[d]
        out.append(value)
    return out


def masked_row(a: Series, q: int, n: int) -> Polynomial:
    """Row n of (a(x)|q) as the digit product of the base rows:
    u_n(x) = prod_i u_{n_i}(x**(q**i)) with u_t = sum_m a_{t-m} x**m, t < q."""
    check_fractal(a, q, n)
    base = [Polynomial([_coeff(a, t - m) for m in range(t + 1)]) for t in range(q)]
    out = P_ONE
    for i, d in enumerate(digits(n, q)):
        if d:
            out = out * base[d].substitute_power(q**i)
    return out


def block_matrix(a: Series, b: Series, q: int, k: int, size: int) -> TriangularMatrix:
    """Block form: entry (Q*n+i, Q*m+j) = a_{n-m} dom(n,m) b_{i-j} dom(i,j)
    with Q = q**k; the inner part b must live below Q and size must tile."""
    block = q**k
    if len(b) > block:
        raise SizeMismatch(f"inner series must have degree < {block}")
    if size % block:
        raise SizeMismatch(f"size {size} is not a multiple of {block}")

    def fn(row: int, col: int) -> Fraction:
        n, i = divmod(row, block)
        m, j = divmod(col, block)
        if i < j or not digit_binom(q, n, m) or not digit_binom(q, i, j):
            return ZERO
        return _coeff(a, n - m) * _coeff(b, i - j)

    return TriangularMatrix.from_fn(size, fn)


def block_product_check(
    a: Series, b: Series, c: Series, d: Series, q: int, k: int, size: int
) -> Report:
    """Ordinary product of two block matrices against the direct build of
    (a o c, b o d | q, k), with o the masked convolution."""
    left = matmul(block_matrix(a, b, q, k, size), block_matrix(c, d, q, k, size))
    block = q**k
    ac = masked_convolve(a, c, q, size // block - 1)
    bd = masked_convolve(b, d, q, block - 1)
    right = block_matrix(ac, bd, q, k, size)
    checked = size * (size + 1) // 2
    if left != right:
        for n in range(size):
            for m in range(n + 1):
                if left.rows[n][m] != right.rows[n][m]:
                    return Report(
                        "block-product",
                        False,
                        {"n": n, "m": m, "left": str(left.rows[n][m]), "right": str(right.rows[n][m])},
                        checked,
                    )
    return Report("block-product", True, None, checked)


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
    """Digit-product matrix seeded by the first q rows of the Pascal matrix."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return TriangularMatrix.from_fn(size, lambda n, m: t_coefficient(q, n, m))


def t_matrix_via_kronecker(q: int, size: int) -> TriangularMatrix:
    """Iterated Kronecker powers of the q-row Pascal block, truncated."""
    seed = TriangularMatrix.from_fn(q, lambda n, m: Fraction(comb(n, m)))
    acc = seed
    while acc.size < size:
        acc = kronecker(seed, acc)
    return acc.truncate(size)


def t_matrix_via_overlay(q: int, size: int) -> TriangularMatrix:
    """Dominance mask applied to the matrix of the digit-factorial series
    c_n = prod_i 1/(n_i!)."""
    coeffs = []
    for n in range(size):
        value = 1
        for d in digits(n, q):
            value *= factorial(d)
        coeffs.append(Fraction(1, value))
    base = build_from_c(CSequence.explicit(coeffs), size)
    return hadamard(sierpinski_matrix(q, size), base)


def t_row(q: int, n: int) -> Polynomial:
    """Row generating polynomial prod_i (1 + x**(q**i))**n_i."""
    out = P_ONE
    for i, d in enumerate(digits(n, q)):
        if d:
            factor = Polynomial([ONE] + [ZERO] * (q**i - 1) + [ONE])
            for _ in range(d):
                out = out * factor
    return out


def t_threeway_check(q: int, size: int) -> Report:
    """Digit products, Kronecker construction and mask overlay must agree."""
    direct = t_matrix(q, size)
    reports = []
    kron_built = t_matrix_via_kronecker(q, size)
    overlay = t_matrix_via_overlay(q, size)
    n_entries = size * (size + 1) // 2
    reports.append(
        Report("t-kronecker", kron_built == direct, None if kron_built == direct else {"q": q}, n_entries)
    )
    reports.append(
        Report("t-overlay", overlay == direct, None if overlay == direct else {"q": q}, n_entries)
    )
    return merge_reports("t-threeway", reports)
