"""Reference values the benchmark checks outputs against.

Every function here is written from the closed forms in the paper and uses
only the standard library; none calls into genpascal, so a wrong answer from
the program cannot also be the expected one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def base_digits(n: int, q: int) -> list[int]:
    """Little-endian base-q digits of n >= 0."""
    out = []
    while n:
        n, d = divmod(n, q)
        out.append(d)
    return out


def borrows(q: int, n: int, m: int) -> int:
    """Borrows made when subtracting m from n in base q (0 <= m <= n).

    By Kummer's theorem this is the number of moduli q**k with
    n mod q**k < m mod q**k, the exponent of the fractal families.
    """
    count = borrow = 0
    while n or m:
        n, dn = divmod(n, q)
        m, dm = divmod(m, q)
        if dn - borrow < dm:
            count += 1
            borrow = 1
        else:
            borrow = 0
    return count


def dominates(q: int, n: int, m: int) -> int:
    """1 when every base-q digit of n is at least the digit of m, else 0."""
    dn, dm = base_digits(n, q), base_digits(m, q)
    if len(dm) > len(dn):
        return 0
    return int(all(a >= b for a, b in zip(dn, dm)))


def digit_comb(q: int, n: int, m: int) -> int:
    """Product of ordinary binomials of the base-q digit pairs of n and m."""
    dn, dm = base_digits(n, q), base_digits(m, q)
    dm += [0] * (len(dn) - len(dm))
    value = 1
    for a, b in zip(dn, dm):
        value *= comb(a, b)
    return value


def fractal_value(phi: Fraction, q: int, n: int, m: int) -> Fraction:
    """Entry (n, m) of the fractal family of base q and weight phi."""
    return phi ** borrows(q, n, m)


def gaussian_table(q: int, size: int) -> list[list[int]]:
    """Gaussian binomials [n, m]_q for 0 <= m <= n < size, by the
    q-Pascal rule [n, m] = [n-1, m-1] + q**m [n-1, m]."""
    rows = [[1]]
    for n in range(1, size):
        prev = rows[-1]
        row = [1]
        for m in range(1, n):
            row.append(prev[m - 1] + q**m * prev[m])
        row.append(1)
        rows.append(row)
    return rows[:size]


def matrix_entries(kind: str, q: int | None, phi: Fraction | None, size: int):
    """Entry function (n, m) -> int | Fraction of a CLI matrix kind."""
    if kind == "pascal":
        return comb
    if kind == "ones":
        return lambda n, m: 1
    if kind == "phiq":
        return lambda n, m: 1 if n % q >= m % q else phi
    if kind == "fractal":
        weight = Fraction(q) if phi is None else phi
        return lambda n, m: fractal_value(weight, q, n, m)
    if kind == "zero-overlay":
        return lambda n, m: comb(n // q, m // q) if n % q >= m % q else 0
    if kind == "tmatrix":
        return lambda n, m: digit_comb(q, n, m)
    if kind == "qumbral":
        table = gaussian_table(q, size)
        return lambda n, m: table[n][m]
    if kind == "qumbral-inverse":
        # coefficient of x**m in prod_{i<n} (x - q**i), by the q-binomial theorem
        table = gaussian_table(q, size)
        return lambda n, m: (-1) ** (n - m) * q ** ((n - m) * (n - m - 1) // 2) * table[n][m]
    raise ValueError(f"no oracle for kind {kind!r}")


def masked_product(a: list[Fraction], b: list[Fraction], q: int, degree: int) -> list[Fraction]:
    """Coefficients of the digit-masked product sum_{m dominated by n} a_m b_{n-m}."""
    return [
        sum((a[m] * b[n - m] for m in range(n + 1) if dominates(q, n, m)), Fraction(0)) for n in range(degree + 1)
    ]


def digit_series(block: list[Fraction], q: int, degree: int) -> list[Fraction]:
    """Extend a base block a_0..a_{q-1} by a_n = prod over digits d of n of a_d."""
    out = []
    for n in range(degree + 1):
        value = Fraction(1)
        for d in base_digits(n, q):
            value *= block[d]
        out.append(value)
    return out


def divisor_product(betas: dict[int, Fraction], n: int) -> Fraction:
    """prod over divisors d >= 2 of n of beta_d: the weight b_n rebuilt from
    mask coordinates."""
    value = Fraction(1)
    for d in range(2, n + 1):
        if n % d == 0:
            value *= betas[d]
    return value
