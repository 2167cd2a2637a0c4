"""Base-q digit expansions, q-adic valuations, and the two recursions that
build row n of a digit family from row n div q: the multiplicative one of
the digit products (Lucas) and the additive one of the carry counts (Kummer).
"""

from __future__ import annotations

from operator import add
from typing import Callable, Sequence


def digits(n: int, base: int) -> list[int]:
    """Little-endian base-q digits of n >= 0; empty for n = 0."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


def valuation(n: int, base: int) -> int:
    """Largest k with base**k dividing n; requires n >= 1."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("valuation needs n >= 1")
    k = 0
    while n % base == 0:
        n //= base
        k += 1
    return k


def digit_product_rows(
    q: int, size: int, block: Callable[[int, int], int], top: Sequence[Sequence[int]] | None = None
) -> list[list[int]]:
    """Rows 0..size-1 of the multiplicative digit recursion on ints,

        row n = [t * c for t in top[n div q] for c in block(n mod q, 0..k-1)][: n + 1],

    so entry (q n' + i, q m' + j) is block(i, j) * top[n'][m']. Without ``top``
    the family is self-similar: top is the rows being built, from row 0 = [1];
    a given top row n' holds n' + 1 entries. Only digits below k = min(q, size)
    occur, so a huge q costs no more than size.

    Row n is read off row n' = n div q as one strided slice row[j::q] per
    digit j: row n' scaled by block(n mod q, j), cut to n' entries when
    j > n mod q (0 skips the slice, 1 copies it). So a row costs one
    interpreter step per digit of the block, however short row n' is.
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
        above, row = top[n1], [0] * (n + 1)
        head = above[:n1]
        for j, c in enumerate(table[i]):
            if c:
                part = above if j <= i else head
                row[j::q] = part if c == 1 else [t * c for t in part]
        rows.append(row)
    return rows[:size]


def carry_count_rows(q: int, size: int) -> list[list[int]]:
    """Carry counts of rows 0..size-1 as ints, row n from row n' = n div q by
    the additive digit recursion (see ``genpascal.fractal``): with
    n = q n' + i, entry q m' + j is prev[m'] for j <= i and
    high[m'] = 1 + v_q(m' + 1) + prev[m' + 1] for j > i, where prev is row n'.

    Row q n' is one strided slice per digit: prev at digit 0, high at the
    others. Each of the next q - 1 rows is its predecessor plus one entry,
    with the slice of its digit i switched from high to prev. So a row takes
    O(1) interpreter steps on average, whatever q is.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    step = [1 + valuation(m1 + 1, q) for m1 in range(size // q)]  # read once per q entries
    counts = [[0]]
    for n1 in range((size - 1) // q + 1):
        prev = row = counts[n1]
        if n1:  # n1 = 0 starts from the seed row 0
            high = list(map(add, step, prev[1:]))
            row = [0] * (q * n1 + 1)
            row[::q] = prev
            for j in range(1, q):
                row[j::q] = high
            counts.append(row)
        for i in range(1, min(q, size - q * n1)):
            row = row + [prev[n1]]
            row[i::q] = prev
            counts.append(row)
    return counts[:size]
