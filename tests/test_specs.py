from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_oracles import materialize_hadamard, qumbral_entry
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
    assert spec.materialize(11) == materialize_hadamard(spec, 11)


@pytest.mark.parametrize("spec", EXAMPLES, ids=[spec.kind for spec in EXAMPLES])
def test_materialized_entries_are_exactly_fractions(spec):
    built = spec.materialize(12)
    assert all(type(e) is Fraction for row in built.rows for e in row)


@pytest.mark.parametrize("spec", EXAMPLES, ids=[spec.kind for spec in EXAMPLES])
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


@pytest.mark.parametrize("n, m", [(3, 1), (3, 5)])
def test_spec_without_c_raises(n, m):
    # the from-c row requires c, so neither entry nor materialize subscripts a missing sequence
    with pytest.raises(ValueError, match="spec kind 'from-c' requires c"):
        GPSpec("from-c").entry(n, m)
    with pytest.raises(ValueError, match="spec kind 'from-c' requires c"):
        GPSpec("from-c").materialize(4)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([-1, 0, 1]), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    st.integers(0, 16),
)
@example(Fraction(-3, 2), 16)
@example(2, 16)
def test_qumbral_entry_forms_match_the_builders(q, size):
    # the closed forms (Gaussian binomial, q-binomial theorem) against the series builders,
    # and the qumbral form against the series division it replaced
    for kind in ("qumbral", "qumbral-inverse"):
        spec = GPSpec(kind, q=q)
        built = spec.materialize(size)
        for n in range(size):
            for m in range(n + 1):
                value = spec.entry(n, m)
                assert type(value) is Fraction
                assert value == built.entry(n, m)
                if kind == "qumbral":
                    assert value == qumbral_entry(spec, n, m)
