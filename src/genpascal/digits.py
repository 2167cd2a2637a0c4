"""Base-q digit expansions, q-adic valuations, and the two recursions that
build row n of a digit family from row n div q: the multiplicative one of
the digit products (Lucas) and the additive one of the carry counts (Kummer).
"""

from __future__ import annotations

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
