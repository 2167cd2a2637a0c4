"""Fractal generalized Pascal matrices and their digit-recursive fast paths.

The family of base q and weight phi is the Hadamard product of the mask
matrices of moduli q, q**2, q**3, ... Its entry at (n,m) is phi raised to the
number of moduli q**k with n mod q**k < m mod q**k; on an N x N truncation
only moduli q**k <= N can contribute, because q**k > n forces
n mod q**k = n >= m = m mod q**k. The finite product is therefore exact, not
an approximation.

The count obeys a digit recursion. Write n = q n' + i and m = q m' + j with
0 <= i, j < q. If i >= j, the counts of (n, m) and (n', m') are equal. If
i < j, the count of (n, m) is 1 + v_q(m' + 1) plus that of (n', m' + 1),
where v_q is the q-adic valuation. ``digits.carry_count_rows`` follows it, so
row n of the family follows from row n div q by one strided slice per
digit, with the per-entry work done in C. A single entry needs no
recursion: it is phi ** carry_count(q, n, m) for every weight (0 ** 0 = 1
makes the zero weight the digit dominance mask), and the weight-q entry is
q ** carry_count(q, n, m). Inside the triangle the count is a difference of
base-q digit sums divided by q - 1, read a chunk of digits at a time for
small bases.

The weight-q rows and columns also follow polynomial recurrences: row
qn+m from rows n and n-1, column qn+m from columns n and n+1 at the inner
size. The two terms fill disjoint residue classes mod q (each w spans fewer
than q degrees), each class a strided copy of inner ints. The builders take
a table of what is built and add the inner ones they build, so rows 0..N-1
(or columns 0..N-1 at size N) in order cost one step each, a lone one O(log n).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, prod
from operator import mul

from .digits import carry_count_rows, valuation
from .matrices import TriangularMatrix, pascal_rows
from .polynomials import P_ONE, P_ZERO, Polynomial, w_poly
from .rationals import ONE, ZERO
from .report import Report, check_equal, merge_reports
from .sequences import BSequence, fractal_b


# carry_count reads the digit sums of bases up to TABLE_BASES off a table of one chunk of k digits,
# q**k <= CHUNK, built on a base's first call. 16 is the largest base whose chunk holds three digits;
# from 17 on a chunk holds two, and below n = 10**12 the digit walk was faster there.
TABLE_BASES = 16
CHUNK = 4096
_digit_sums: dict[int, list[int]] = {}


def _chunk_digit_sums(q: int) -> list[int]:
    """The base-q digit sums of 0..Q-1, Q the largest power of q <= CHUNK."""
    size = q
    while size * q <= CHUNK:
        size *= q
    sums = [0] * size
    for i in range(1, size):
        sums[i] = sums[i // q] + i % q
    _digit_sums[q] = sums
    return sums


def carry_count(q: int, n: int, m: int) -> int:
    """Number of moduli q**k (k >= 1) with n mod q**k < m mod q**k; the base
    check of the per-entry forms.

    Inside the triangle this is the number of borrows in n - m in base q, and
    each borrow (a carry in m + (n - m)) lowers the digit sum by q - 1, so it
    is (s(m) + s(n - m) - s(n)) / (q - 1), s the base-q digit sum (Legendre's
    formula for the valuation of C(n, m) when q is prime). At q = 2 the sums
    are three ``int.bit_count`` calls; at the other bases up to TABLE_BASES
    they are read off a table of one chunk of digits, one divmod of n, m and
    n - m per chunk. Larger bases, and every base outside the triangle, walk
    the digits."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if 0 <= m <= n and q <= TABLE_BASES:
        if q == 2:
            return m.bit_count() + (n - m).bit_count() - n.bit_count()
        sums = _digit_sums.get(q) or _chunk_digit_sums(q)
        size = len(sums)
        r = n - m
        total = 0
        while n:  # n >= m and n >= r, so all three run out together
            n, a = divmod(n, size)
            m, b = divmod(m, size)
            r, c = divmod(r, size)
            total += sums[b] + sums[c] - sums[a]
        return total // (q - 1)
    count = 0
    power = q
    while power <= n:
        if n % power < m % power:
            count += 1
        power *= q
    return count


def fractal_entry(phi: Fraction | int, q: int, n: int, m: int) -> Fraction:
    """Entry (n,m) of the fractal family, phi ** carry_count(q, n, m) inside
    the triangle and 0 outside; at phi = 0 it is the digit dominance mask."""
    k = carry_count(q, n, m)
    phi = phi if type(phi) is Fraction else Fraction(phi)
    return (phi**k if k else ONE) if 0 <= m <= n else ZERO


def _count_powers(base, q: int, size: int) -> list:
    """base**k for every carry count k that occurs below ``size``: one per
    modulus q**k <= size - 1, and k = 0."""
    powers = [1]
    while q ** len(powers) < size:
        powers.append(powers[-1] * base)
    return powers


def fractal_matrix(phi: Fraction | int, q: int, size: int) -> TriangularMatrix:
    """The truncation built from the int table of carry counts: with
    phi = a/d and K the largest count, count k stands for the numerator
    a**k d**(K-k) over d**K (0**0 = 1 covers the zero weight)."""
    counts = carry_count_rows(q, size)  # checks q before the power tables loop on it
    phi = Fraction(phi)
    a_powers = _count_powers(phi.numerator, q, size)
    d_powers = _count_powers(phi.denominator, q, size)
    nums = list(map(mul, a_powers, reversed(d_powers)))
    rows = [list(map(nums.__getitem__, row)) for row in counts]
    return TriangularMatrix.from_view(d_powers[-1], rows)


def fast_gbinom_fractal(q: int, n: int, m: int) -> Fraction:
    """Entry (n,m) of the weight-q fractal matrix: q ** carry_count(q, n, m)
    (three bit counts at q = 2, one step per chunk of digits up to
    TABLE_BASES, one per digit above), 0 outside the triangle. By Kummer's
    theorem, for prime q this is the q-part of C(n, m); it equals the
    factorial ratio for every q."""
    k = carry_count(q, n, m)
    return Fraction(q**k) if 0 <= m <= n else ZERO


def fractal_row(q: int, n: int, rows: dict[int, Polynomial] | None = None) -> Polynomial:
    """Row n of the weight-q fractal matrix, built only from the recurrence
    u_{qn+m} = w_m(x) u_n(x^q) + q b_n x^{m+1} w_{q-2-m}(x) u_{n-1}(x^q),
    and 0 for n < 0. The terms fill the residues 0..m and m+1..q-1 mod q
    with strided copies of the ints of u_n and of q b_n u_{n-1}.

    ``rows`` maps n to the rows already built. An inner row it lacks is built
    through the module's ``fractal_row`` and added, so one table shared by the
    calls for rows 0..N-1 builds each row once, and a lone call builds only
    the O(log n) rows below it."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if n <= 0:
        return P_ONE if n == 0 else P_ZERO
    n1, m = divmod(n, q)
    if n1 == 0:
        return w_poly(m)  # b_0 = 0 kills the second term
    rows = {} if rows is None else rows
    if n1 not in rows:
        rows[n1] = fractal_row(q, n1, rows)
    parts = [rows[n1].int_view()[1]] * (m + 1)
    if m < q - 1:
        if n1 - 1 not in rows:
            rows[n1 - 1] = fractal_row(q, n1 - 1, rows)
        c = q * q ** valuation(n1, q)  # q b_{n1} of the weight-q family
        parts += [[c * x for x in rows[n1 - 1].int_view()[1]]] * (q - 1 - m)
    return Polynomial.from_view(1, _strided(n + 1, q, parts))


def fractal_column(
    q: int, n: int, size: int, columns: dict[tuple[int, int], Polynomial] | None = None
) -> Polynomial:
    """Column n of the weight-q fractal matrix truncated at degree size-1,
    built from g_{qn+m} = x^m w_{q-1-m}(x) g_n(x^q) + q b_{n+1} w_{m-1}(x) g_{n+1}(x^q),
    seeded by q ** carry_count for n < q. The terms fill the residues m..q-1
    and 0..m-1 mod q with strided copies of g_n and q b_{n+1} g_{n+1}, needed
    only through degree (size-1) div q: at the inner size (size-1) div q + 1.

    ``columns`` maps (n, size) to the columns already built. An inner column
    it lacks is built through the module's ``fractal_column`` and added, so one
    table shared by the calls for columns 0..N-1 at size N builds each
    (column, size) once, and a lone call builds O(log n) inner columns."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if size < 1:
        return P_ZERO
    if n < q:
        return Polynomial.from_view(1, [q ** carry_count(q, k, n) if 0 <= n <= k else 0 for k in range(size)])
    n1, m = divmod(n, q)
    inner = (size - 1) // q + 1
    columns = {} if columns is None else columns
    if (n1, inner) not in columns:
        columns[n1, inner] = fractal_column(q, n1, inner, columns)
    parts = [columns[n1, inner].int_view()[1]] * (q - m)
    if m:
        if (n1 + 1, inner) not in columns:
            columns[n1 + 1, inner] = fractal_column(q, n1 + 1, inner, columns)
        c = q * q ** valuation(n1 + 1, q)  # q b_{n1+1} of the weight-q family
        parts = [[c * x for x in columns[n1 + 1, inner].int_view()[1]]] * m + parts
    return Polynomial.from_view(1, _strided(size, q, parts))


def _strided(size: int, q: int, parts: list) -> list[int]:
    """``size`` ints, class t mod q holding parts[t] cut to its length, 0 past it."""
    out = [0] * size
    for t, part in zip(range(size), parts):
        part = part[: len(range(t, size, q))]
        out[t : t + q * len(part) : q] = part
    return out


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [p for p in range(2, n + 1) if sieve[p]]


def pascal_prime_factorization(size: int) -> Report:
    """The entrywise product of the weight-p fractal matrices over primes
    p < size equals the Pascal matrix; primes beyond the block are all-ones
    on it. Entry (n,m) of the weight-p matrix is p**k with k the carry count,
    so each row is a product of int powers read off the carry-count tables.
    By Kummer's theorem k is the p-adic valuation of C(n,m), but the product
    is compared with the Pascal rows of the addition rule, which never see
    the tables, so the check is real."""
    primes = _primes_upto(max(size - 1, 1))
    tables = [(p, carry_count_rows(p, size), _count_powers(p, p, size)) for p in primes]
    rows = []
    for n in range(size):
        product = [1] * (n + 1)
        for p, counts, powers in tables:
            if p > n:
                break
            product = list(map(mul, product, map(powers.__getitem__, counts[n])))
        rows.append(product)
    pascal = TriangularMatrix.from_view(1, pascal_rows(size))
    return check_equal("primes", TriangularMatrix.from_view(1, rows), pascal)


def fractal_c_check(q: int, degree: int) -> Report:
    """Two series identities for the coefficient sequence 1/b_n!:

    (a) the product of the w-factors w_{q-1}(x**(q**k) / s_k) with
        s_k = q**((q**k - 1)/(q - 1)), over q**k <= degree, equals
        sum x**n/b_n! coefficientwise through ``degree`` (later factors start
        above the cut);
    (b) the coefficientwise product over primes p <= degree of the weight-p
        sequences is the exponential series 1/n!.
    """
    b = BSequence.fractal(q, q)
    target = [ONE / b.factorial(n) for n in range(degree + 1)]
    steps = [q**k for k in range(degree.bit_length()) if q**k <= degree]  # q >= 2: k < bit_length
    scales = [q ** ((step - 1) // (q - 1)) for step in steps]
    # w_{q-1}(y / s) is sum_t s**(q-1-t) y**t over s**(q-1), at y = x**step
    factors = [
        Polynomial.from_view(s ** (q - 1), [s ** (q - 1 - t) for t in range(q)]).substitute_power(step)
        for step, s in zip(steps, scales)
    ]
    product = list(prod(factors, start=P_ONE).coeffs[: degree + 1])
    prime_seqs = [BSequence.fractal(p, p) for p in _primes_upto(degree)]
    hadamard = [ONE / prod(seq.factorial(n) for seq in prime_seqs) for n in range(degree + 1)]
    exponential = [Fraction(1, factorial(n)) for n in range(degree + 1)]
    return merge_reports("series-product", [
        check_equal("series-product", product, target, q=q),
        check_equal("series-hadamard", hadamard, exponential),
    ])


def b_functional_equation_check(q: int, degree: int) -> Report:
    """b(x) = w_{q-2}(x) x / (1 - x**q) + q b(x**q), coefficientwise through
    ``degree``, with both sides expanded independently. A negative degree
    has no coefficient to compare: it passes with ``checked`` 0."""
    if degree < 0:
        return Report("b-functional", True, None, 0)
    lhs = [ZERO] + [fractal_b(q, q, n) for n in range(1, degree + 1)]
    # w_{q-2}(x) / (1 - x**q) through degree - 1 is w_{q-2}(x) w_{degree div q}(x**q), shifted by x
    rhs = [ZERO, *(w_poly(q - 2) * w_poly(degree // q).substitute_power(q)).coeffs[:degree]]
    rhs[::q] = [x + q * y for x, y in zip(rhs[::q], lhs)]
    return check_equal("b-functional", lhs, rhs, q=q)
