"""Generating sequences: weights b_n and series coefficients c_n.

A BSequence is the weight sequence of a generalized binomial coefficient
(b_0 = 0; a zero b_n with n > 0 makes b_m! raise ZeroFactor for m >= n); a CSequence
is the coefficient sequence of the series defining a generalized Pascal matrix
(c_0 = c_1 = 1, all c_n nonzero). Both are rule-described and memoized; caches
are fill-once and observationally pure, so concurrent reads and idempotent
concurrent fills are safe. A value that is exactly a ``Fraction`` is kept as
that object; any other value (an int, a bool, ``"3/2"``, a Fraction subclass)
goes through ``Fraction()`` once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Sequence

from .digits import valuation
from .errors import ZeroFactor
from .rationals import ONE, ZERO


def fractal_b(q: int, phi: Fraction | int, n: int) -> Fraction:
    """phi ** v_q(n): the weight at n of the base-q fractal family; ``valuation``
    checks q >= 2 and n >= 1."""
    return Fraction(phi) ** valuation(n, q)


class _Memo:
    """A sequence described by a rule n -> value, memoized in ``_values``;
    ``explicit`` takes the values as a list, checked by the subclass's ``_check``."""

    letter: str  # names the sequence in the explicit list's IndexError

    def __init__(self, kind: str, fn: Callable[[int], Fraction]):
        self.kind = kind
        self._fn = fn
        self._values: dict[int, Fraction] = {}

    @classmethod
    def explicit(cls, values: Sequence[Fraction | int]):
        vals = [v if type(v) is Fraction else Fraction(v) for v in values]
        cls._check(vals)

        def fn(n: int) -> Fraction:
            if n >= len(vals):
                raise IndexError(f"explicit {cls.letter}-sequence has no index {n}")
            return vals[n]

        return cls("explicit", fn)

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("negative index")
        got = self._values.get(n)
        if got is None:
            got = self._fn(n)
            if type(got) is not Fraction:
                got = Fraction(got)
            self._values[n] = got
        return got


class BSequence(_Memo):
    """Memoized weight sequence b_n with b_0 = 0."""

    letter = "b"

    def __init__(self, kind: str, fn: Callable[[int], Fraction]):
        super().__init__(kind, fn)
        self._values[0] = ZERO
        self._factorials: dict[int, tuple[int, int]] = {0: (1, 1)}

    @classmethod
    def naturals(cls) -> "BSequence":
        return cls("naturals", lambda n: Fraction(n))

    @classmethod
    def fractal(cls, q: int, phi: Fraction | int) -> "BSequence":
        phi = Fraction(phi)
        return cls(f"fractal({q},{phi})", lambda n: fractal_b(q, phi, n))

    @staticmethod
    def _check(vals: list[Fraction]) -> None:
        if vals and vals[0] != 0:
            raise ValueError("b_0 must be 0")

    def factorial(self, n: int) -> Fraction:
        """prod_{m=1}^{n} b_m, with the empty product 1 for n = 0.

        Raises ZeroFactor on a zero term: the matrix is then a zero generalized
        Pascal matrix and callers must take the digit-mask path instead.
        """
        return Fraction(*self.factorial_pair(n))

    def factorial_pair(self, n: int) -> tuple[int, int]:
        """b_n! as (num, den) in lowest terms with den > 0, cached per n; raises
        ZeroFactor like ``factorial``."""
        got = self._factorials.get(n)
        if got is not None:
            return got
        start = n
        while start not in self._factorials:
            start -= 1
        num, den = self._factorials[start]
        for m in range(start + 1, n + 1):
            term = self[m]
            if term == 0:
                raise ZeroFactor(f"b_{m} = 0 in {self.kind}")
            num, den = num * term.numerator, den * term.denominator
            g = gcd(num, den)
            num, den = num // g, den // g
            self._factorials[m] = (num, den)
        return num, den


class CSequence(_Memo):
    """Memoized series coefficients c_n with c_0 = c_1 = 1 and c_n != 0."""

    letter = "c"

    @classmethod
    def exponential(cls) -> "CSequence":
        return cls("exponential", lambda n: Fraction(1, factorial(n)))

    @classmethod
    def geometric(cls) -> "CSequence":
        return cls("geometric", lambda n: ONE)

    @classmethod
    def from_b(cls, b: BSequence) -> "CSequence":
        return cls(f"from_b({b.kind})", lambda n: ONE / b.factorial(n))

    @classmethod
    def fractal(cls, q: int) -> "CSequence":
        seq = cls.from_b(BSequence.fractal(q, q))
        seq.kind = f"fractal({q})"
        return seq

    @staticmethod
    def _check(vals: list[Fraction]) -> None:
        if not vals or vals[0] != 1:
            raise ValueError("c_0 must be 1")
        if len(vals) > 1 and vals[1] != 1:
            raise ValueError("c_1 must be 1")
        if any(v == 0 for v in vals):
            raise ValueError("c_n must be nonzero")
