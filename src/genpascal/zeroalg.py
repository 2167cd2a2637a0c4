"""Zero generalized Pascal matrices and their digit calculus.

The base pattern matrix of modulus q has entry 1 exactly when every base-q
digit of the row index dominates the corresponding digit of the column index
(the generalized Sierpinski matrix). On top of it sit the masked Toeplitz
algebra (a(x)|q) with its carryless convolution, the block matrices, and the
digit-product matrices built from the first q rows of the Pascal matrix.
The patterns and digit products are built from row n div q by
``digits.digit_product_rows``; ``digit_binom`` and ``t_coefficient`` are
their per-entry oracles. Series run on their integer ``View``, as matrices do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import comb, factorial
from operator import ge, mul
from typing import Sequence

from .digits import digit_product_rows
from .errors import NotFractal, SizeMismatch
from .matrices import TriangularMatrix, build_from_c, hadamard, matmul
from .polynomials import mul_ints
from .rationals import ONE, ZERO, SharedFractions, to_view
from .report import Report, check_equal, merge_reports
from .sequences import CSequence

Series = Sequence[Fraction | int]
View = tuple[int, list[int]]  # (D, x): coefficient n is x[n] / D


def digit_binom(q: int, n: int, m: int) -> int:
    """1 iff every base-q digit of n dominates the digit of m, else 0; 0
    outside the triangle 0 <= m <= n.

    At q = 2 this is C(n, m) mod 2 (Lucas's theorem), which is 1 exactly
    when the bits of m are a subset of those of n: one ``n & m == m``.
    Every other base walks the digits."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 0 <= m <= n:
        return 0
    if q == 2:
        return int(n & m == m)
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


def _dominance_row(q: int, n: int) -> list[int]:
    """Row n of the base-q zero pattern read off the digits of n: 1 at the
    columns sum t_i q**i with 0 <= t_i <= n_i (Lucas's product form), else 0."""
    row, columns, power = [0] * (n + 1), [0], 1
    while n:
        n, d = divmod(n, q)
        if d:
            columns = [c + t for t in range(0, (d + 1) * power, power) for c in columns]
        power *= q
    for c in columns:
        row[c] = 1
    return row


def sierpinski_selfsim_check(q: int, k: int) -> Report:
    """The leading q**(k+1) block, read off the digits of n, equals both Kronecker
    splits of itself (the row recursion of ``sierpinski_matrix`` is one of them)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s1, sk = sierpinski_matrix(q, q), sierpinski_matrix(q, q**k)
    big = TriangularMatrix.from_view(1, [_dominance_row(q, n) for n in range(q ** (k + 1))])
    return merge_reports("kron", [
        check_equal("kron", kronecker(s1, sk), big, q=q, k=k, order="coarse-first"),
        check_equal("kron", kronecker(sk, s1), big, q=q, k=k, order="fine-first"),
    ])


def _numerators(a: Series, size: int) -> View:
    """(D, x) = to_view of a_0..a_{size-1}, with a_n = 0 past the end of a."""
    return to_view([*a[:size], *repeat(0, size - len(a))])


def check_fractal(a: Series, q: int, degree: int) -> View:
    """Raise NotFractal unless a_d = a_{d mod q} * a_{d div q} through ``degree``
    (the coefficientwise form of a(x) = (sum_{n<q} a_n x^n) a(x^q)) with a_0 = 1,
    as x_d D = x_{d mod q} x_{d div q} on (D, x) = ``_numerators``, which it returns
    (empty at degree -1)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    den, x = _numerators(a, max(degree, -1) + 1)
    if x and x[0] != den:
        raise NotFractal("a_0 must be 1")
    for d in range(q, degree + 1):
        if x[d] * den != x[d % q] * x[d // q]:
            raise NotFractal(f"digit-multiplicative condition fails at degree {d}")
    return den, x


def _extend(den: int, x: list[int], q: int, degree: int) -> View:
    """``fractal_series`` of the base block x / den (at most q entries) over den**L, L the number
    of base-q digits of ``degree``: coefficient q n' + i is out[n'] // den * x[i]; x is kept."""
    if q < 2:
        raise ValueError("q must be >= 2")
    scale, top = 1, degree  # scale becomes den**(L - 1), and stays 1 at degree -1
    while top >= q:
        top, scale = top // q, scale * den
    out = [v * scale for v in x]
    for n in range(q, degree + 1):
        out.append(out[n // q] // den * x[n % q])
    return den * scale, out


def _fractions(view: View) -> list[Fraction]:
    """The coefficients x[n] / D of a series view (D, x), one Fraction per distinct numerator."""
    den, x = view
    return list(map(SharedFractions(den).__getitem__, x))


def fractal_series(base: Series, q: int, degree: int) -> list[Fraction]:
    """The digit-multiplicative series a_n = a_{n div q} * a_{n mod q} through
    ``degree``, extended from its base block a_0 = 1, a_1, ..., a_{q-1}."""
    return _fractions(_extend(*_numerators(base, min(q, max(degree, -1) + 1)), q, degree))


def masked_matrix(a: Series, q: int, size: int) -> TriangularMatrix:
    """Entries a_{n-m} masked by digit dominance: the rows of the
    Sierpinski pattern times the series, on its numerators."""
    if len(a) < size:
        raise SizeMismatch(f"need {size} series coefficients, got {len(a)}")
    return _masked_view(digit_product_rows(q, size, ge), _numerators(a, size))


def masked_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
    """Product in the masked algebra: coefficient n is
    sum_m dominance(n,m) a_m b_{n-m}. Valid for arbitrary series.

    Runs on the views of a and b with the dominance mask built by the digit
    recursion: one view over Da * Db, one Fraction per distinct numerator."""
    size = degree + 1
    return _fractions(_convolve_views(digit_product_rows(q, size, ge), _numerators(a, size), _numerators(b, size)))


def _masked_view(pattern: list[list[int]], view: View) -> TriangularMatrix:
    """``masked_matrix`` on a given dominance pattern (``digit_product_rows(q, size, ge)``)
    and the view (D, x) of at least size = len(pattern) coefficients; x is not changed."""
    den, x = view
    size = len(pattern)
    rev = x[size - 1 :: -1]  # rev[size - 1 - n + m] = D a_{n-m}
    return TriangularMatrix.from_view(den, [list(map(mul, row, rev[size - 1 - n :])) for n, row in enumerate(pattern)])


def _convolve_views(pattern: list[list[int]], a: View, b: View) -> View:
    """The view over Da * Db of ``masked_convolve`` through degree len(pattern) - 1
    on a given dominance pattern and the views of a and b; neither is changed."""
    (da, nums), (db, x) = a, b
    degree = len(pattern) - 1
    rev = x[degree::-1]
    # coefficient n pairs a_m with b_{n-m}, that is with rev[degree - n + m]
    return da * db, [sum(compress(map(mul, nums, rev[degree - n :]), row)) for n, row in enumerate(pattern)]


def carryless_convolve(a: Series, b: Series, q: int, degree: int) -> list[Fraction]:
    """Digit-product fast path of the masked product for fractal inputs.

    Coefficient n is the product over base-q digits n_i of the ordinary
    product coefficient [x**n_i](a*b); only the window below q is needed.
    Raises NotFractal when either input fails the digit-multiplicative
    precondition through ``degree``.
    """
    return _fractions(carryless_view(check_fractal(a, q, degree), check_fractal(b, q, degree), q, degree))


def carryless_view(a: View, b: View, q: int, degree: int) -> View:
    """The view of the carryless product through ``degree`` of two checked
    views (D, x) (``check_fractal``): its base block is the ordinary product's
    coefficients below q over da * db (``mul_ints``), which ``_extend`` extends.
    A view needs only its coefficients below q."""
    (da, xa), (db, xb) = a, b
    return _extend(da * db, mul_ints(xa, xb, min(q, degree + 1)), q, degree)


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
    """Product of ordinary binomials of the base-q digit pairs, stopping at a
    zero factor or at the last digit of m (C(x, 0) = 1 for the rest of n).
    At q = 2 it is 1 exactly when ``n & m == m`` (Lucas), with no digit walk."""
    if q < 2:
        raise ValueError("base must be >= 2")
    if not 0 <= m <= n:
        return ZERO
    if q == 2:
        return ONE if n & m == m else ZERO
    value = 1
    while m and value:
        (n, x), (m, y) = divmod(n, q), divmod(m, q)
        value *= comb(x, y)
    return Fraction(value)


def t_matrix(q: int, size: int) -> TriangularMatrix:
    """Digit-product matrix seeded by the first q rows of the Pascal matrix:
    T(q n' + i, q m' + j) = C(i, j) T(n', m'), built row by row on ints."""
    return TriangularMatrix.from_view(1, digit_product_rows(q, size, comb))


def t_matrix_via_kronecker(q: int, size: int) -> TriangularMatrix:
    """Iterated Kronecker powers of the q-row Pascal block, truncated."""
    if q < 2:
        raise ValueError("q must be >= 2")  # a block of 1 or 0 rows never grows
    seed = TriangularMatrix.from_view(1, [[comb(n, m) for m in range(n + 1)] for n in range(q)])
    acc = seed
    while acc.size < size:
        acc = kronecker(seed, acc)
    return acc.truncate(size)


def t_matrix_via_overlay(q: int, size: int) -> TriangularMatrix:
    """Dominance mask applied to the matrix of the digit-factorial series
    c_n = prod_i 1/(n_i!)."""
    coeffs = fractal_series([Fraction(1, factorial(d)) for d in range(q)], q, size - 1)
    base = build_from_c(CSequence("digit-factorial", coeffs.__getitem__), size)
    return hadamard(sierpinski_matrix(q, size), base)


def t_threeway_check(q: int, size: int) -> Report:
    """Digit products, Kronecker construction and mask overlay must agree."""
    direct = t_matrix(q, size)
    return merge_reports("t-threeway", [
        check_equal("t-kronecker", t_matrix_via_kronecker(q, size), direct, q=q),
        check_equal("t-overlay", t_matrix_via_overlay(q, size), direct, q=q),
    ])
