from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from fraction_oracles import FractionPolynomial, FractionSubclass, geometric, value_form
from genpascal.matrices import TriangularMatrix, build_from_c
from genpascal.polynomials import Polynomial, mul_ints, mul_trunc, w_poly
from genpascal.sequences import CSequence
from genpascal.verify import golden_family

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


def test_polynomial_is_immutable():
    p = Polynomial([1, Fraction(1, 2)])
    view = p.int_view()
    for name in ("_view", "coeffs", "degree"):
        with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
            setattr(p, name, None)
    assert p.int_view() is view


def test_normalization():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]).coeffs == ()


def test_w_poly():
    assert w_poly(-1) == Polynomial()
    assert w_poly(0) == Polynomial([1])
    assert w_poly(2) == Polynomial([1, 1, 1])


def test_arithmetic():
    p = Polynomial([1, 1])
    assert p * p == Polynomial([1, 2, 1])
    assert p.substitute_power(3) == Polynomial([1, 0, 0, 1])
    assert FractionPolynomial(p.coeffs).evaluate(Fraction(1, 2)) == Fraction(3, 2)


@pytest.mark.parametrize("q", [0, -1])
def test_substitute_power_refuses_q_below_one(q):
    # before, these were slicing errors: a zero step at q = 0, an extended slice of size 0 at q = -1
    with pytest.raises(ValueError, match=rf"^q must be >= 1, got {q}$"):
        Polynomial([1, 1]).substitute_power(q)


def test_substitute_power_of_one_is_the_same_polynomial():
    for p in (Polynomial([1, Fraction(-2, 3), 5]), Polynomial([7]), Polynomial([])):
        assert p.substitute_power(1) == p


def plus(a, b):
    """a + b, summed by the oracle."""
    return Polynomial((FractionPolynomial(a.coeffs) + FractionPolynomial(b.coeffs)).coeffs)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert a * plus(b, c) == plus(a * b, a * c)
    assert (a * b) * c == a * (b * c)


def test_helpers():
    assert geometric(Fraction(2), 3) == [1, 2, 4, 8]
    assert mul_trunc([1, 1], [1, 1], 1) == [1, 2]
    assert mul_ints([1, 1], [1, 1], 3) == [1, 2, 1]
    assert mul_ints([1, 1], [1, 1], 5) == [1, 2, 1, 0, 0]
    assert mul_ints([1, 2], [3], 0) == [] == mul_ints([], [], -1)
    assert Polynomial.__rmul__ is Polynomial.__mul__


@given(
    st.lists(st.one_of(coeff, fraction_coeff), max_size=15),
    st.lists(st.one_of(coeff, fraction_coeff), max_size=15),
    st.integers(-1, 12),
    st.booleans(),
)
def test_mul_trunc_matches_the_fraction_loop(xs, ys, degree, ints_only):
    if ints_only:
        xs, ys = [x for x in xs if type(x) is int], [y for y in ys if type(y) is int]
    got = mul_trunc(xs, ys, degree)
    assert got == oracle.mul_trunc(xs, ys, degree)
    assert len(got) == degree + 1 and all(type(c) is Fraction for c in got)


@given(st.integers(0, 12), st.data())
def test_mul_ints_is_the_window_of_sums(size, data):
    # the old carryless base block: a modulus above the degree leaves the window as it is
    ints = st.lists(st.integers(-50, 50), min_size=size, max_size=size + 3)
    a, b = data.draw(ints), data.draw(ints)
    assert oracle.carryless_view((1, a), (1, b), size + 2, size - 1) == (1, mul_ints(a, b, size))


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
    assert (mixed * mixed).coeffs[0] == Fraction(1, 4)
    assert (mixed * Polynomial([Fraction(2)])).coeffs == (1, Fraction(-4, 3), 10)


def test_coefficients_are_coerced_once():
    kept = Fraction(-3, 7)
    p = Polynomial([kept, True, 2, 2])
    assert p.coeffs[2] is p.coeffs[3]  # one Fraction per distinct value
    assert all(type(c) is Fraction for c in p.coeffs)


mixed_values = st.lists(st.one_of(coeff, fraction_coeff), max_size=8)
scalars = st.one_of(coeff, fraction_coeff)


def assert_same(got, want):
    """got, a Polynomial, holds exactly the coefficients of the oracle's ``want``."""
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert repr(got) == repr(want)
    assert got == Polynomial(want.coeffs) and hash(got) == hash(Polynomial(want.coeffs))


@given(mixed_values, mixed_values, scalars, st.integers(0, 4), st.integers(1, 4), scalars)
def test_operations_match_the_fraction_polynomial(xs, ys, c, k, q, x):
    a, b = Polynomial(xs), Polynomial(ys)
    fa, fb = FractionPolynomial(xs), FractionPolynomial(ys)
    assert_same(a, fa)
    assert_same(Polynomial(value_form(Fraction(v), k + i) for i, v in enumerate(xs)), fa)
    assert_same(a * b, fa * fb)
    assert_same(a * c, fa * c)
    assert_same(c * a, c * fa)
    assert_same(a.substitute_power(q), fa.substitute_power(q))
    # results built on the integer view feed the next operation
    assert_same((a * b).substitute_power(q) * a, (fa * fb).substitute_power(q) * fa)
    assert_same((a * 0) * c, (fa * 0) * c)
    assert FractionPolynomial(a.coeffs).evaluate(x) == fa.evaluate(x)
    assert (a == b) == (fa == fb)


def test_view_is_the_lcm_of_the_denominators():
    # equality compares the stored views, so each of these holds only if the view is in lowest terms
    p = Polynomial([Fraction(1, 2), Fraction(-1, 3), 1, 0])
    assert Polynomial.from_view(6, (3, -2, 6)) == p == Polynomial.from_view(12, [6, -4, 12, 0, 0])
    assert Polynomial([FractionSubclass(1, 2), "-2/6", True, False]) == p
    assert Polynomial.from_view(5, [0, 0]) == Polynomial()
    assert p * Polynomial([6]) == Polynomial.from_view(1, [3, -2, 6])
    assert Polynomial.from_view(4, [2, 2]).coeffs == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Polynomial.from_view(0, [1])


nonzero_fraction = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=9)
)


@settings(max_examples=40)
@given(st.lists(nonzero_fraction, max_size=12), st.booleans())
def test_row_and_column_polys_match_the_fraction_polynomial(tail, from_values):
    matrix = build_from_c(CSequence.explicit([1, 1, *tail]), len(tail) + 2)
    if from_values:
        matrix = TriangularMatrix(matrix.rows)
    for n in range(matrix.size):
        assert_same(matrix.row_poly(n), FractionPolynomial(matrix.rows[n]))
        assert_same(matrix.column_poly(n), FractionPolynomial([matrix.entry(k, n) for k in range(matrix.size)]))


def test_row_and_column_polys_of_the_golden_family():
    # zero entries and zero trailing column entries included
    for _, matrix in golden_family(9):
        for n in range(matrix.size):
            assert_same(matrix.row_poly(n), FractionPolynomial(matrix.rows[n]))
            column = [matrix.entry(k, n) for k in range(matrix.size)]
            assert_same(matrix.column_poly(n), FractionPolynomial(column))
