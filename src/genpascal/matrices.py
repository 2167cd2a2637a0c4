"""Finite lower-triangular truncations of generalized Pascal matrices.

Entries are exact rationals; a matrix of size N stores rows 0..N-1 with row n
holding entries (n,0)..(n,n). Entries above the diagonal are implicitly zero.
Matrices are immutable after construction.

The stored form is the integer view: ``int_view()`` is the pair
(den, int_rows) with den the lcm of the entry denominators and int_rows the
entries times den. The lcm makes the view unique, so a product or difference
of numerators over the product of the dens is the exact result. The builders
and the algebra hand their int tables to ``TriangularMatrix.from_view``, which
stores the view and builds no Fraction. The value constructor stores the
view that ``rationals.to_view`` makes of its entries, so the view is the only
stored form: ``rows`` makes the Fractions on first read, one per distinct
numerator, and caches them. No raw int ever leaves the view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from .errors import SizeMismatch
from .polynomials import Polynomial
from .rationals import ZERO, SharedFractions, Value, lowest_view, ratio, to_view
from .report import Report
from .sequences import BSequence, CSequence


class TriangularMatrix(Value):
    __slots__ = ("size", "_view")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        rs = list(map(list, rows))
        den, ints = to_view(chain.from_iterable(rs))  # every entry is coerced before the shape check
        _check_shape(rs)
        it = iter(ints)
        super().__init__(len(rs), (den, tuple(tuple(islice(it, len(row))) for row in rs)))

    @classmethod
    def from_view(cls, den: int, rows: Iterable[Iterable[int]]) -> "TriangularMatrix":
        """The matrix with entries rows[n][m] / den, stored as its view.

        One gcd of den and every entry is divided out, so den becomes the lcm
        of the entry denominators; no Fraction is built. Tuple rows are kept
        as the same objects when that gcd is 1; other rows are copied to tuples."""
        den, ints = lowest_view(den, tuple(map(tuple, rows)))
        _check_shape(ints)
        return cls._make(len(ints), (den, ints))

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as exact Fractions, built from the view on first read."""
        den, ints = self._view
        shared = SharedFractions(den)
        return tuple(tuple(map(shared.__getitem__, row)) for row in ints)

    def int_view(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, int_rows): den is the lcm of the entry denominators and
        int_rows[n][m] = den * (n,m), an int. The stored form."""
        return self._view

    def entry(self, n: int, m: int) -> Fraction:
        if not 0 <= m <= n:
            return ZERO
        return self.rows[n][m]

    def row_poly(self, n: int) -> Polynomial:
        """Row generating polynomial, x**m weighted by column index m."""
        if n < 0:
            raise IndexError(f"negative row index {n}")
        den, ints = self.int_view()
        return Polynomial.from_view(den, ints[n])

    def column_poly(self, m: int) -> Polynomial:
        """Column generating polynomial, x**n weighted by row index n; zero for m >= size."""
        if m < 0:
            raise IndexError(f"negative column index {m}")
        den, ints = self.int_view()
        return Polynomial.from_view(den, [0] * m + [row[m] for row in ints[m:]])

    def truncate(self, size: int) -> "TriangularMatrix":
        if size > self.size:
            raise SizeMismatch(f"cannot grow {self.size} to {size}")
        if size < 0:
            raise SizeMismatch(f"cannot truncate to a negative size {size}")
        den, ints = self.int_view()
        return TriangularMatrix.from_view(den, ints[:size])

    def __eq__(self, other) -> bool:
        return isinstance(other, TriangularMatrix) and self._view == other._view

    def __hash__(self):
        return hash(self._view)  # the view is unique, so equal matrices hash alike


def _check_shape(rows: Sequence[Sequence]) -> None:
    """Row n must have n + 1 entries: the lengths are compared in one C pass, and
    the rows are walked only to name the first bad one."""
    if list(map(len, rows)) != list(range(1, len(rows) + 1)):
        n, row = next((n, row) for n, row in enumerate(rows) if len(row) != n + 1)
        raise SizeMismatch(f"row {n} must have {n + 1} entries, got {len(row)}")


def _columns(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Stored part of each column: entries (m,m)..(N-1,m) of column m."""
    return [[row[m] for row in rows[m:]] for m in range(len(rows))]


def _first_difference(xs: Sequence, ys: Sequence) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def identity_matrix(size: int) -> TriangularMatrix:
    return TriangularMatrix.from_view(1, [(0,) * n + (1,) for n in range(size)])


def all_ones(size: int) -> TriangularMatrix:
    return TriangularMatrix.from_view(1, [(1,) * (n + 1) for n in range(size)])


def pascal_rows(size: int) -> list[tuple[int, ...]]:
    """Rows 0..size-1 of the Pascal matrix by the addition rule, as tuples,
    which ``from_view`` keeps as they are."""
    rows = [(1,)] if size > 0 else []
    for _ in range(1, size):
        prev = rows[-1]
        rows.append((1, *map(add, prev, prev[1:]), 1))
    return rows


def c_view(c: CSequence, size: int) -> tuple[int, list[int]]:
    """(B, a) with c_k = a_k / B for k < size, B the lcm of their denominators; a zero c_n raises ZeroDivisionError."""
    b, a = to_view(c[n] for n in range(size))
    if 0 in a:
        raise ZeroDivisionError(f"c_{a.index(0)} = 0")
    return b, a


def build_from_c(c: CSequence, size: int) -> TriangularMatrix:
    """Matrix with entries c_m c_{n-m} / c_n.

    Each c_k is read once as a_k / B (``c_view``), so over L, the lcm of the
    |B a_n|, entry (n,m) has the int numerator a_m a_{n-m} (L / (B a_n)).
    """
    b, a = c_view(c, size)
    den = lcm(*(b * x for x in a))
    rev = a[::-1]  # rev[size - 1 - n + m] = a_{n-m}
    rows = []
    for n, x in enumerate(a):
        rows.append(list(map(mul, map(mul, a[: n + 1], repeat(den // (b * x))), rev[size - 1 - n :])))
    return TriangularMatrix.from_view(den, rows)


def gbinom(b: BSequence, n: int, m: int) -> Fraction:
    """Generalized binomial b_n! / (b_m! b_{n-m}!), zero for m > n.

    Raises ZeroFactor for zero-kind b; those matrices are evaluated by the
    digit mask instead of factorial ratios.
    """
    if m < 0 or m > n:
        return ZERO
    num, den = b.factorial_pair(n)
    num_m, den_m = b.factorial_pair(m)
    num_k, den_k = b.factorial_pair(n - m)
    return ratio(num * den_m * den_k, den * num_m * num_k)


def hadamard(a: TriangularMatrix, b: TriangularMatrix) -> TriangularMatrix:
    """Entrywise product; the group operation on generalized Pascal truncations."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} != {b.size}")
    da, ra = a.int_view()
    db, rb = b.int_view()
    return TriangularMatrix.from_view(da * db, [list(map(mul, xs, ys)) for xs, ys in zip(ra, rb)])


def subtract(a: TriangularMatrix, b: TriangularMatrix) -> TriangularMatrix:
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} != {b.size}")
    da, ra = a.int_view()
    db, rb = b.int_view()
    out = [[x * db - y * da for x, y in zip(xs, ys)] for xs, ys in zip(ra, rb)]
    return TriangularMatrix.from_view(da * db, out)


def matmul(a: TriangularMatrix, b: TriangularMatrix) -> TriangularMatrix:
    """Ordinary matrix product of equal-size lower-triangular truncations."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} != {b.size}")
    da, ra = a.int_view()
    db, rb = b.int_view()
    cols = _columns(rb)
    # entry (n,m) pairs a(n,k) with b(k,m) for k = m..n
    out = [[sum(map(mul, arow[m:], cols[m])) for m in range(n + 1)] for n, arow in enumerate(ra)]
    return TriangularMatrix.from_view(da * db, out)


def identity_check(a: TriangularMatrix, suite: str = "identities") -> Report:
    """Check the defining entry identities on the whole truncation.

    (n,0) = 1 and (n,m) = (n,n-m) for every stored entry, and the six-factor
    shift identity
        (n+q,q)(n+p,m+p)(m+p,p) = (n+p,p)(n+q,m+q)(m+q,q)
    for all 0 <= m <= n and shifts 0 <= p < q with n+q < size. Equal shifts
    make both sides identical and swapping p,q swaps the sides, so scanning
    p < q is exhaustive. Returns the first counterexample found.

    For each n the products (n+s,m+s)(m+s,s) are made once per shift s, and
    for each p the sides of every q > p are compared as two flat lists, so
    the per-entry work runs in C; the first differing index names q and m.
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
        width = n + 1
        shifts = a.size - n
        # products[s][m] = (n+s,m+s)(m+s,s), made once per shift s and laid end to end in flat
        products = [list(map(mul, rows[n + s][s:], cols[s])) for s in range(shifts)]
        flat = list(chain.from_iterable(products))
        # (n+s,s) repeated once per m, aligned with flat
        diagonal = list(chain.from_iterable(repeat(rows[n + s][s], width) for s in range(shifts)))
        for p in range(shifts):
            # every shift q > p at once: entry (q-p-1)*width + m holds the sides at (m, q)
            start = (p + 1) * width
            lhs = list(map(mul, products[p] * (shifts - 1 - p), diagonal[start:]))
            rhs = list(map(mul, flat[start:], repeat(rows[n + p][p])))
            if lhs != rhs:
                i = _first_difference(lhs, rhs)
                k, m = divmod(i, width)
                ce = {"identity": "shift", "n": n, "m": m, "p": p, "q": p + 1 + k}
                return Report(suite, False, ce, checked + i + 1)
            checked += len(lhs)
    return Report(suite, True, None, checked)

