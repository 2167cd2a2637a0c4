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
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, prod
from operator import itemgetter

from .fractal import carry_count, fractal_entry, fractal_matrix
from .matrices import TriangularMatrix, all_ones, build_from_c, hadamard, pascal_rows
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


# kind -> (materialize(spec, size), entry(spec, n, m) for 0 <= m <= n, {field the spec requires:
# its least value or None}); a digit kind's q is a base, a q-umbral q is any number
FAMILIES = {
    "pascal": (
        lambda s, size: TriangularMatrix.from_view(1, pascal_rows(size)),
        lambda s, n, m: Fraction(comb(n, m)),
        {},
    ),
    "ones": (lambda s, size: all_ones(size), lambda s, n, m: ONE, {}),
    "from-c": (lambda s, size: build_from_c(s.c, size), _from_c_entry, {"c": None}),
    "phiq": (
        lambda s, size: phi_q_matrix(s.phi, s.q, size),
        lambda s, n, m: ONE if n % s.q >= m % s.q else s.phi,
        {"q": 2, "phi": None},
    ),
    "fractal": (
        lambda s, size: fractal_matrix(s.phi, s.q, size),
        lambda s, n, m: fractal_entry(s.phi, s.q, n, m),
        {"q": 2, "phi": None},
    ),
    "qumbral": (lambda s, size: q_umbral_matrix(s.q, size), lambda s, n, m: _q_binomial(s.q, n, m), {"q": None}),
    "qumbral-inverse": (
        lambda s, size: q_umbral_inverse(s.q, size), lambda s, n, m: _q_binomial(s.q, n, m, True), {"q": None}
    ),
    "zero-overlay": (
        lambda s, size: zero_overlay_matrix(s.q, size),
        lambda s, n, m: Fraction(comb(n // s.q, m // s.q)) if n % s.q >= m % s.q else ZERO,
        {"q": 2},
    ),
    "tmatrix": (lambda s, size: t_matrix(s.q, size), lambda s, n, m: t_coefficient(s.q, n, m), {"q": 2}),
    # the product of the factors' views, built one factor at a time; no factors give all ones
    "hadamard": (
        lambda s, size: reduce(hadamard, (f.materialize(size) for f in s.factors), all_ones(size)),
        _hadamard_entry,
        {},
    ),
}
