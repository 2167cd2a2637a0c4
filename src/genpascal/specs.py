"""Symbolic matrix descriptions and the table of matrix families.

A GPSpec names a matrix family and its parameters. ``FAMILIES`` holds one row
per kind, the eight CLI kinds plus ``from-c`` and ``hadamard``: its
full-truncation constructor, its per-entry form (the two agree bit-exactly)
and the spec fields it requires, each with its least value where there is one,
checked when a spec is made. ``entry`` gives one coefficient, ``materialize``
the truncation. A Hadamard spec materializes its factors one at a time and
multiplies their integer views, so at most the running product and one factor
are alive. Its entry multiplies the factors' entries as ints: a ``fractal``
factor of weight a/d gives a**k and d**k, with k its carry count; the fractal
factors are resolved once per spec into a table sorted by base, which the
entry walks up to the first base above n, where k = 0 for the rest. A base
with q <= n < q**2 has the one modulus q, so its k is the comparison
n mod q < m mod q, made inline; only bases with q**2 <= n call carry_count.
The other kinds give their per-entry forms. One Fraction is built per entry.

``bitmap`` gives the truncation's PBM rows, each ``size`` bytes of ``0``/``1``.
Every kind's zero pattern is a closed form in its parameters, so its rows are
made by C-level bytes operations with no matrix built: no zero in the triangle
(pascal, ones, from-c once its c_n are read as build_from_c reads them, phiq and
fractal at phi != 0, the q-umbral pair at q not in {-1, 0}); the one-digit mask
n mod q >= m mod q (phiq at phi = 0, zero-overlay, and the q-umbral pair at
q = -1 with modulus 2); base-q digit dominance, the generalized Sierpinski
pattern by Lucas's theorem (fractal at phi = 0, tmatrix); the band n - m <= 1
(qumbral-inverse at q = 0); and the AND of the factors' rows (hadamard).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, prod
from operator import itemgetter

from .fractal import carry_count, fractal_entry, fractal_matrix
from .matrices import TriangularMatrix, all_ones, build_from_c, c_view, hadamard, pascal_rows
from .rationals import ONE, ZERO, Value, lazy, ratio
from .sequences import CSequence
from .special import phi_q_matrix, q_umbral_inverse, q_umbral_matrix, zero_overlay_matrix
from .zeroalg import t_coefficient, t_matrix


class GPSpec(Value):
    """A kind of FAMILIES and its parameters; phi, and the rational q of the q-umbral kinds, are stored as Fractions."""

    __slots__ = ("kind", "c", "phi", "q", "factors")

    def __init__(self, kind: str, c: CSequence | None = None, phi=None, q=None, factors: tuple[GPSpec, ...] = ()):
        if kind not in FAMILIES:
            raise ValueError(f"unknown spec kind {kind!r}")
        phi = phi if phi is None else Fraction(phi)
        q = Fraction(q) if kind in ("qumbral", "qumbral-inverse") and q is not None else q
        super().__init__(kind, c, phi, q, factors)
        for name, least in FAMILIES[kind][2].items():
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"spec kind {kind!r} requires {name}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")

    @classmethod
    def from_c(cls, c: CSequence) -> "GPSpec":
        return cls("from-c", c=c)

    @classmethod
    def phiq(cls, phi: Fraction | int, q: int) -> "GPSpec":
        return cls("phiq", phi=phi, q=q)

    @classmethod
    def fractal(cls, phi: Fraction | int, q: int) -> "GPSpec":
        return cls("fractal", phi=phi, q=q)

    @classmethod
    def qumbral(cls, q: Fraction | int) -> "GPSpec":
        return cls("qumbral", q=q)

    @classmethod
    def tmatrix(cls, q: int) -> "GPSpec":
        return cls("tmatrix", q=q)

    @classmethod
    def hadamard(cls, factors: list["GPSpec"]) -> "GPSpec":
        return cls("hadamard", factors=tuple(factors))

    def entry(self, n: int, m: int) -> Fraction:
        if not 0 <= m <= n:
            return ZERO
        return FAMILIES[self.kind][1](self, n, m)

    def materialize(self, size: int) -> TriangularMatrix:
        return FAMILIES[self.kind][0](self, size)

    def bitmap(self, size: int) -> list[bytes]:
        return FAMILIES[self.kind][3](self, size)

    @lazy
    def _hadamard_parts(self) -> tuple[list[tuple[int, int, int]], list["GPSpec"]]:
        """A Hadamard spec's factors, resolved on its first entry: the fractal ones
        as (q, a, d) for the weight a/d, sorted by q, and the others in order."""
        fractals = sorted(
            ((f.q, f.phi.numerator, f.phi.denominator) for f in self.factors if f.kind == "fractal"),
            key=itemgetter(0),
        )
        return fractals, [f for f in self.factors if f.kind != "fractal"]


def _from_c_entry(spec: GPSpec, n: int, m: int) -> Fraction:
    a, b, c = spec.c[m], spec.c[n - m], spec.c[n]
    return ratio(a.numerator * b.numerator * c.denominator, a.denominator * b.denominator * c.numerator)


def _hadamard_entry(spec: GPSpec, n: int, m: int) -> Fraction:
    # the outer GPSpec.entry has checked the triangle, so each factor's form is called directly;
    # a fractal factor is phi**k with k = carry_count(q, n, m), and 1 from the first q > n on,
    # which leaves no modulus to borrow at (also at phi = 0, as 0**0 = 1); below q**2 the one
    # modulus q is the whole count, a bool that powers as 0 or 1
    fractals, others = spec._hadamard_parts
    num = den = 1
    for q, a, d in fractals:
        if q > n:
            break
        k = carry_count(q, n, m) if q * q <= n else n % q < m % q
        if k:
            num, den = num * a**k, den * d**k
    for f in others:
        x = FAMILIES[f.kind][1](f, n, m)
        num, den = num * x.numerator, den * x.denominator
    return ratio(num, den)


def _q_binomial(q: Fraction | int, n: int, m: int, inverse: bool = False) -> Fraction:
    """The Gaussian binomial [n m]_q = prod_{i=1..m} (1 - q**(n-m+i)) / (1 - q**i), the q-umbral entry;
    with ``inverse``, (-1)**(n-m) q**C(n-m, 2) [n m]_q, the inverse's entry by the q-binomial theorem."""
    if q == 1:
        num, den = comb(n, m), 1
    elif q == -1:  # the zero-overlay entry of modulus 2
        num, den = (comb(n // 2, m // 2) if n % 2 >= m % 2 else 0), 1
    else:  # 1 - q**k = (d**k - a**k) / d**k, and the d**k leave d**((n-m)m) in the denominator
        a, d = q.numerator, q.denominator
        num = prod(d**k - a**k for k in range(n - m + 1, n + 1))
        den = prod(d**k - a**k for k in range(1, m + 1)) * d ** ((n - m) * m)
    if inverse:
        k = comb(n - m, 2)
        num, den = (-1) ** (n - m) * q.numerator**k * num, q.denominator**k * den
    return Fraction(num, den)


def _band(width: int, size: int) -> list[bytes]:
    """The rows whose nonzero entries are the last ``width`` of the triangle's, n - width < m <= n:
    row n is the slice of one line of 1s between 0s that ends at column n."""
    line = b"0" * size + b"1" * width + b"0" * size
    return [line[k : k + size] for k in range(size + width - 1, width - 1, -1)]


_NUL = bytes.maketrans(b"\0", b"0")


def _digit_rows(q: int, size: int, lucas: bool) -> list[bytes]:
    """The rows of the one-digit mask n mod q >= m mod q or, with ``lucas``, of base-q digit
    dominance. Row n = dq + r is d blocks of r + 1 ones and q - r - 1 zeros, then r + 1 ones; under
    dominance row d widens instead, each 1 to that block and each 0 to q zeros. A base above the
    size acts as the size, so the blocks never outgrow a row."""
    q, rows = min(q, size), []
    for n in range(size):
        d, r = divmod(n, q)
        block = b"1" * (r + 1) + b"0" * (q - r - 1)
        if lucas:
            head = rows[d][:d].replace(b"0", b"\0" * q).replace(b"1", block).translate(_NUL) if d else b""
        else:
            head = block * d
        rows.append((head + block[: r + 1]).ljust(size, b"0"))
    return rows


# kind -> (materialize(spec, size), entry(spec, n, m) for 0 <= m <= n, {field the spec requires:
# its least value or None}, bitmap(spec, size)); a digit kind's q is a base, a q-umbral q is any
# number, and at q = -1 its entries are the zero-overlay's of modulus 2
FAMILIES = {
    "pascal": (
        lambda s, size: TriangularMatrix.from_view(1, pascal_rows(size)),
        lambda s, n, m: Fraction(comb(n, m)),
        {},
        lambda s, size: _band(size, size),
    ),
    "ones": (lambda s, size: all_ones(size), lambda s, n, m: ONE, {}, lambda s, size: _band(size, size)),
    "from-c": (
        lambda s, size: build_from_c(s.c, size),
        _from_c_entry,
        {"c": None},
        lambda s, size: _band(len(c_view(s.c, size)[1]), size),  # c_view refuses a zero c_n
    ),
    "phiq": (
        lambda s, size: phi_q_matrix(s.phi, s.q, size),
        lambda s, n, m: ONE if n % s.q >= m % s.q else s.phi,
        {"q": 2, "phi": None},
        lambda s, size: _band(size, size) if s.phi else _digit_rows(s.q, size, False),
    ),
    "fractal": (
        lambda s, size: fractal_matrix(s.phi, s.q, size),
        lambda s, n, m: fractal_entry(s.phi, s.q, n, m),
        {"q": 2, "phi": None},
        lambda s, size: _band(size, size) if s.phi else _digit_rows(s.q, size, True),
    ),
    "qumbral": (
        lambda s, size: q_umbral_matrix(s.q, size),
        lambda s, n, m: _q_binomial(s.q, n, m),
        {"q": None},
        lambda s, size: _digit_rows(2, size, False) if s.q == -1 else _band(size, size),
    ),
    # the inverse's q**C(n-m, 2) is 0 at q = 0 from n - m = 2 on
    "qumbral-inverse": (
        lambda s, size: q_umbral_inverse(s.q, size),
        lambda s, n, m: _q_binomial(s.q, n, m, True),
        {"q": None},
        lambda s, size: _digit_rows(2, size, False) if s.q == -1 else _band(size if s.q else 2, size),
    ),
    "zero-overlay": (
        lambda s, size: zero_overlay_matrix(s.q, size),
        lambda s, n, m: Fraction(comb(n // s.q, m // s.q)) if n % s.q >= m % s.q else ZERO,
        {"q": 2},
        lambda s, size: _digit_rows(s.q, size, False),
    ),
    "tmatrix": (
        lambda s, size: t_matrix(s.q, size),
        lambda s, n, m: t_coefficient(s.q, n, m),
        {"q": 2},
        lambda s, size: _digit_rows(s.q, size, True),
    ),
    # the product of the factors' views, built one factor at a time; no factors give all ones. The bitmap
    # ANDs the factors' rows, drawn one at a time, as big-endian ints: exact on ASCII 0/1, as 0x30 & 0x31 =
    # 0x30; the ones rows come in as a factor, since a reduce's start value is held until it returns
    "hadamard": (
        lambda s, size: reduce(hadamard, (f.materialize(size) for f in s.factors), all_ones(size)),
        _hadamard_entry,
        {},
        lambda s, size: reduce(
            lambda rows, more: [
                (int.from_bytes(a, "big") & int.from_bytes(b, "big")).to_bytes(size, "big") for a, b in zip(rows, more)
            ],
            (f.bitmap(size) for f in s.factors or (GPSpec("ones"),)),
        ),
    ),
}
