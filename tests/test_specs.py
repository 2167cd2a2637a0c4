from fractions import Fraction

import pytest

from genpascal.matrices import hadamard_product
from genpascal.sequences import CSequence
from genpascal.specs import GPSpec

CASES = [
    GPSpec.from_c(CSequence.exponential()),
    GPSpec.from_c(CSequence.fractal(3)),
    GPSpec.phiq(Fraction(7), 2),
    GPSpec.phiq(Fraction(-2, 3), 5),
    GPSpec.fractal(Fraction(2), 2),
    GPSpec.fractal(Fraction(0), 2),
    GPSpec.fractal(Fraction(1, 3), 3),
    GPSpec.qumbral(Fraction(-1)),
    GPSpec.qumbral(Fraction(2)),
    GPSpec.tmatrix(3),
    GPSpec.masked([Fraction(1)] * 16, 2),
    GPSpec.masked([1, Fraction(-2, 3), 5, 0, Fraction(1, 7)] + [1] * 11, 3),
]


@pytest.mark.parametrize("spec", CASES, ids=[c.kind + str(i) for i, c in enumerate(CASES)])
def test_entry_matches_materialized(spec):
    size = 12
    built = spec.materialize(size)
    for n in range(size):
        for m in range(n + 1):
            value = spec.entry(n, m)
            assert type(value) is Fraction
            assert value == built.entry(n, m)
    assert spec.entry(2, 5) == 0


def test_hadamard_spec_streams():
    factors = [GPSpec.fractal(Fraction(p), p) for p in (2, 3, 5, 7)]
    spec = GPSpec.hadamard(factors)
    streamed = spec.materialize(11)
    collected = hadamard_product([f.materialize(11) for f in factors])
    assert streamed == collected


@pytest.mark.parametrize("kind", ["pascal", "ones", "qumbral-inverse", "zero-overlay"])
def test_kinds_without_entry_form(kind):
    spec = GPSpec(kind, q=2)
    assert spec.materialize(4).size == 4
    with pytest.raises(ValueError, match="no per-entry form"):
        spec.entry(1, 0)


def test_unknown_kind():
    with pytest.raises(ValueError):
        GPSpec("bogus").entry(1, 0)
    with pytest.raises(ValueError):
        GPSpec("bogus").materialize(2)
