from fractions import Fraction

import pytest

from genpascal.matrices import hadamard_product
from genpascal.sequences import CSequence
from genpascal.specs import FAMILIES, GPSpec

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
    GPSpec("pascal"),
    GPSpec("zero-overlay", q=3),
    GPSpec("zero-overlay", q=2),
    GPSpec("ones"),
]

# one spec of every kind in FAMILIES
EXAMPLES = [
    GPSpec("pascal"),
    GPSpec("ones"),
    GPSpec.from_c(CSequence.explicit([1, 1] + [Fraction(-k, k + 3) for k in range(1, 11)])),
    GPSpec.phiq(Fraction(-2, 3), 3),
    GPSpec.fractal(Fraction(1, 3), 3),
    GPSpec.qumbral(Fraction(2)),
    GPSpec("qumbral-inverse", q=Fraction(2)),
    GPSpec("zero-overlay", q=3),
    GPSpec.tmatrix(3),
    GPSpec.masked([1, Fraction(-2, 3), 5, 0, Fraction(1, 7)] + [1] * 11, 3),
    GPSpec.hadamard([GPSpec.fractal(Fraction(2), 2), GPSpec.phiq(Fraction(1, 2), 3)]),
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


@pytest.mark.parametrize("spec", EXAMPLES, ids=[spec.kind for spec in EXAMPLES])
def test_materialized_entries_are_exactly_fractions(spec):
    built = spec.materialize(12)
    assert all(type(e) is Fraction for row in built.rows for e in row)


ENTRY_EXAMPLES = [spec for spec in EXAMPLES if FAMILIES[spec.kind][1] is not None]


@pytest.mark.parametrize("spec", ENTRY_EXAMPLES, ids=[spec.kind for spec in ENTRY_EXAMPLES])
def test_entry_is_zero_outside_the_triangle(spec):
    # the per-entry form and the materialized matrix agree off the triangle too
    size = 12
    built = spec.materialize(size)
    for n in range(size):
        for m in (-1, n + 1):
            assert spec.entry(n, m) == 0
            assert built.entry(n, m) == 0


def test_examples_cover_every_family():
    assert sorted(spec.kind for spec in EXAMPLES) == sorted(FAMILIES)


@pytest.mark.parametrize("kind", ["qumbral-inverse"])
def test_kinds_without_entry_form(kind):
    spec = GPSpec(kind, q=2)
    assert spec.materialize(4).size == 4
    with pytest.raises(ValueError, match="no per-entry form"):
        spec.entry(1, 0)
    with pytest.raises(ValueError, match="no per-entry form"):
        GPSpec.hadamard([GPSpec("ones"), spec]).entry(1, 0)


def test_unknown_kind():
    with pytest.raises(ValueError):
        GPSpec("bogus").entry(1, 0)
    with pytest.raises(ValueError):
        GPSpec("bogus").materialize(2)


@pytest.mark.parametrize("kind", ["phiq", "fractal"])
@pytest.mark.parametrize("n, m", [(3, 1), (3, 5)])
def test_spec_without_phi_raises(kind, n, m):
    # refused when made, so an entry on either side of the triangle never runs
    with pytest.raises(ValueError, match=f"spec kind '{kind}' requires phi"):
        GPSpec(kind, q=3).entry(n, m)
