from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from genpascal.polynomials import Polynomial, geometric, mul_trunc, w_poly

coeff = st.integers(min_value=-5, max_value=5)
polys = st.lists(coeff, max_size=6).map(Polynomial)
fraction_coeff = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)
)
mixed_polys = st.lists(st.one_of(coeff, fraction_coeff), max_size=8).map(Polynomial)


def reference_product(a, b):
    """The Fraction loop Polynomial.__mul__ ran before the common-denominator path."""
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1) if a.coeffs and b.coeffs else []
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def test_normalization():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial().degree == -1


def test_w_poly():
    assert w_poly(-1).is_zero()
    assert w_poly(0) == Polynomial([1])
    assert w_poly(2) == Polynomial([1, 1, 1])


def test_arithmetic():
    p = Polynomial([1, 1])
    assert p * p == Polynomial([1, 2, 1])
    assert p - p == Polynomial()
    assert p.shift(2) == Polynomial([0, 0, 1, 1])
    assert p.substitute_power(3) == Polynomial([1, 0, 0, 1])
    assert (p * p).truncate(1) == Polynomial([1, 2])
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)


def test_coefficient_out_of_range():
    assert Polynomial([1, 2]).coefficient(5) == 0


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


def test_helpers():
    assert geometric(Fraction(2), 3) == [1, 2, 4, 8]
    assert mul_trunc([1, 1], [1, 1], 1) == [1, 2]


@given(mixed_polys, mixed_polys)
def test_product_matches_the_fraction_loop(a, b):
    # int / int is a float in Python: every coefficient must come out an exact Fraction
    product = a * b
    assert product == reference_product(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)


def test_product_coefficients_are_exactly_fractions():
    ints = Polynomial([1, 2, 3])
    mixed = Polynomial([Fraction(1, 2), Fraction(-2, 3), 5])
    for a, b in ((ints, ints), (ints, mixed), (mixed, mixed), (ints, Polynomial()), (Polynomial(), mixed)):
        product = a * b
        assert all(type(c) is Fraction for c in product.coeffs)
        assert product == reference_product(a, b)
    assert (mixed * mixed).coefficient(0) == Fraction(1, 4)
    assert (mixed * Polynomial([Fraction(2)])).coeffs == (1, Fraction(-4, 3), 10)


def test_coefficients_are_coerced_once():
    kept = Fraction(-3, 7)
    p = Polynomial([kept, True, 2, 2])
    assert p.coeffs[0] is kept
    assert p.coeffs[2] is p.coeffs[3]  # one Fraction per distinct value
    assert all(type(c) is Fraction for c in p.coeffs)
