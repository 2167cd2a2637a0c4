"""Symbolic matrix descriptions and the table of matrix families.

A GPSpec names a matrix family plus parameters. ``FAMILIES`` maps each kind
to its full-truncation constructor and, where the family has one, its
per-entry form; the two agree bit-exactly. ``entry`` evaluates one
coefficient straight from the description; ``materialize`` builds the full
truncation. Hadamard specs stream per-entry products so a long factor list
(such as the per-prime factorization of Pascal) never materializes its
intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .fractal import fractal_entry, fractal_matrix
from .matrices import TriangularMatrix, all_ones, build_from_c
from .polynomials import geometric, mul_trunc
from .rationals import ONE, ZERO
from .sequences import CSequence
from .special import phi_q_matrix, q_umbral_inverse, q_umbral_matrix, zero_overlay_matrix
from .zeroalg import digit_binom, masked_matrix, t_coefficient, t_matrix


@dataclass(frozen=True)
class GPSpec:
    kind: str  # a key of FAMILIES
    c: CSequence | None = None
    phi: Fraction | None = None
    q: int | None = None  # the q-umbral families also take a rational q
    factors: tuple["GPSpec", ...] = field(default_factory=tuple)
    a: tuple[Fraction, ...] = ()

    @classmethod
    def from_c(cls, c: CSequence) -> "GPSpec":
        return cls("from-c", c=c)

    @classmethod
    def phiq(cls, phi: Fraction | int, q: int) -> "GPSpec":
        return cls("phiq", phi=Fraction(phi), q=q)

    @classmethod
    def fractal(cls, phi: Fraction | int, q: int) -> "GPSpec":
        return cls("fractal", phi=Fraction(phi), q=q)

    @classmethod
    def qumbral(cls, q: Fraction | int) -> "GPSpec":
        return cls("qumbral", q=Fraction(q))

    @classmethod
    def tmatrix(cls, q: int) -> "GPSpec":
        return cls("tmatrix", q=q)

    @classmethod
    def masked(cls, a: Sequence[Fraction | int], q: int) -> "GPSpec":
        """(a(x)|q): series coefficients a_{n-m} under the digit-dominance mask."""
        return cls("masked", q=q, a=tuple(Fraction(x) for x in a))

    @classmethod
    def hadamard(cls, factors: list["GPSpec"]) -> "GPSpec":
        return cls("hadamard", factors=tuple(factors))

    def entry(self, n: int, m: int) -> Fraction:
        if m > n:
            return ZERO
        entry = _family(self.kind)[1]
        if entry is None:
            raise ValueError(f"spec kind {self.kind!r} has no per-entry form")
        return entry(self, n, m)

    def materialize(self, size: int) -> TriangularMatrix:
        return _family(self.kind)[0](self, size)


def _qumbral_entry(spec: GPSpec, n: int, m: int) -> Fraction:
    series = [ONE]
    for t in range(m + 1):
        series = mul_trunc(series, geometric(spec.q**t, n - m), n - m)
    return series[n - m]


def _hadamard_entry(spec: GPSpec, n: int, m: int) -> Fraction:
    value = ONE
    for f in spec.factors:
        value *= f.entry(n, m)
    return value


# kind -> (materialize(spec, size), entry(spec, n, m) for m <= n, or None)
FAMILIES = {
    "pascal": (lambda s, size: build_from_c(CSequence.exponential(), size), None),
    "ones": (lambda s, size: all_ones(size), None),
    "from-c": (lambda s, size: build_from_c(s.c, size), lambda s, n, m: s.c[m] * s.c[n - m] / s.c[n]),
    "phiq": (
        lambda s, size: phi_q_matrix(s.phi, s.q, size),
        lambda s, n, m: ONE if n % s.q >= m % s.q else s.phi,
    ),
    "fractal": (
        lambda s, size: fractal_matrix(s.phi, s.q, size),
        lambda s, n, m: fractal_entry(s.phi, s.q, n, m),
    ),
    "qumbral": (lambda s, size: q_umbral_matrix(s.q, size), _qumbral_entry),
    "qumbral-inverse": (lambda s, size: q_umbral_inverse(s.q, size), None),
    "zero-overlay": (lambda s, size: zero_overlay_matrix(s.q, size), None),
    "tmatrix": (lambda s, size: t_matrix(s.q, size), lambda s, n, m: t_coefficient(s.q, n, m)),
    "masked": (
        lambda s, size: masked_matrix(s.a, s.q, size),
        lambda s, n, m: s.a[n - m] if n - m < len(s.a) and digit_binom(s.q, n, m) else ZERO,
    ),
    # stream entries; factor matrices are never built
    "hadamard": (lambda s, size: TriangularMatrix.from_fn(size, s.entry), _hadamard_entry),
}


def _family(kind: str) -> tuple:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown spec kind {kind!r}") from None
