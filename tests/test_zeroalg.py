from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_matrices as gold
from genpascal.errors import NotFractal, SizeMismatch
from genpascal.matrices import TriangularMatrix, identity_matrix, matmul
from genpascal.polynomials import Polynomial
from genpascal.zeroalg import (
    block_matrix,
    block_product_check,
    carryless_convolve,
    digit_binom,
    kronecker,
    masked_convolve,
    masked_matrix,
    masked_row,
    sierpinski_matrix,
    sierpinski_selfsim_check,
    t_coefficient,
    t_matrix,
    t_matrix_via_kronecker,
    t_matrix_via_overlay,
    t_row,
    t_threeway_check,
)

ONES16 = [Fraction(1)] * 16
DELTA16 = [Fraction(1)] + [Fraction(0)] * 15


def test_digit_binom_values():
    assert digit_binom(2, 10, 8) == 1
    assert digit_binom(2, 12, 2) == 0
    assert digit_binom(5, 37, 37) == 1
    assert digit_binom(10, 5, 14) == 0  # m > n never dominates


def test_digit_binom_is_parity():
    for n in range(128):
        for m in range(n + 1):
            assert digit_binom(2, n, m) == comb(n, m) % 2


def test_sierpinski_display():
    assert sierpinski_matrix(2, 16) == TriangularMatrix(gold.ZERO_2_16)


def test_kronecker_base_cases():
    s = sierpinski_matrix(2, 4)
    one = identity_matrix(1)
    assert kronecker(s, one) == s
    assert kronecker(one, s) == s
    s1 = sierpinski_matrix(2, 2)
    assert kronecker(s1, s1) == sierpinski_matrix(2, 4)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_selfsim(q, k):
    assert sierpinski_selfsim_check(q, k).passed


def test_masked_matrix_cases():
    assert masked_matrix(ONES16, 2, 16) == sierpinski_matrix(2, 16)
    assert masked_matrix(DELTA16, 2, 16) == identity_matrix(16)
    with pytest.raises(SizeMismatch):
        masked_matrix([Fraction(1)] * 3, 2, 16)


def test_squared_pattern_display():
    squared = matmul(sierpinski_matrix(2, 16), sierpinski_matrix(2, 16))
    assert squared == TriangularMatrix(gold.ZERO_2_SQUARED_16)
    convolved = carryless_convolve(ONES16, ONES16, 2, 15)
    assert masked_matrix(convolved, 2, 16) == squared


def test_carryless_values():
    out = carryless_convolve(ONES16, ONES16, 2, 15)
    assert out[5] == 4  # digits 101 -> 2*1*2
    assert out[15] == 16
    assert carryless_convolve(ONES16, DELTA16, 2, 15) == list(ONES16)


def test_carryless_rejects_non_fractal():
    bad = [Fraction(1), Fraction(1), Fraction(5)] + [Fraction(1)] * 13
    with pytest.raises(NotFractal):
        carryless_convolve(bad, ONES16, 2, 15)
    with pytest.raises(NotFractal):
        carryless_convolve([Fraction(2)] * 16, ONES16, 2, 15)


def test_masked_convolve_general():
    # arbitrary series: direct mask sum equals the matrix product
    a = [Fraction(1), Fraction(3), Fraction(-2), Fraction(1, 2)] + [Fraction(0)] * 4
    b = [Fraction(1), Fraction(-1), Fraction(4), Fraction(7)] + [Fraction(0)] * 4
    product = matmul(masked_matrix(a, 2, 8), masked_matrix(b, 2, 8))
    assert masked_matrix(masked_convolve(a, b, 2, 7), 2, 8) == product


def test_masked_row_all_ones():
    u15 = masked_row(ONES16, 2, 15)
    expected = Polynomial([1])
    for i in range(4):
        expected = expected * Polynomial([1] + [0] * (2**i - 1) + [1])
    assert u15 == expected == Polynomial([1] * 16)
    assert masked_row(ONES16, 2, 0) == Polynomial([1])


def test_masked_row_squared_series():
    squared = carryless_convolve(ONES16, ONES16, 2, 15)
    assert masked_row(squared, 2, 3) == Polynomial([4, 2, 2, 1])
    full = matmul(sierpinski_matrix(2, 16), sierpinski_matrix(2, 16))
    for n in range(16):
        assert masked_row(squared, 2, n) == full.row_poly(n)


def test_block_matrix_layout():
    a = [Fraction(x) for x in (2, 3, 5, 7)]
    b = [Fraction(x) for x in (1, 4)]
    m = block_matrix(a, b, 2, 1, 8)
    # entry (2n+i, 2m+j) = a_{n-m} dom(n,m) b_{i-j} dom(i,j)
    assert m.entry(3, 0) == a[1] * b[1]
    assert m.entry(3, 1) == a[1] * b[0]
    assert m.entry(3, 2) == a[0] * b[1]
    assert m.entry(2, 1) == 0
    assert m.entry(4, 0) == a[2] * b[0]


def test_block_matrix_depth_two():
    a = [Fraction(x) for x in (1, 9)]
    b = [Fraction(x) for x in (1, 2, 3, 4)]
    m = block_matrix(a, b, 2, 2, 8)
    assert m.entry(4, 0) == a[1] * b[0]
    assert m.entry(5, 0) == a[1] * b[1]
    assert m.entry(7, 2) == a[1] * b[1]  # blocks (1,0), inner (3,2)
    with pytest.raises(SizeMismatch):
        block_matrix(a, [Fraction(1)] * 5, 2, 2, 8)
    with pytest.raises(SizeMismatch):
        block_matrix(a, b, 2, 2, 10)


def test_block_product_identity():
    delta4 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    report = block_product_check(delta4, delta4[:2], delta4, delta4[:2], 2, 1, 8)
    assert report.passed
    assert block_matrix(delta4, delta4[:2], 2, 1, 8) == identity_matrix(8)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_block_product_random(data):
    rationals = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    draw_series = lambda size: [Fraction(1)] + data.draw(
        st.lists(rationals, min_size=size - 1, max_size=size - 1)
    )
    a, c = draw_series(8), draw_series(8)
    b, d = draw_series(2), draw_series(2)
    assert block_product_check(a, b, c, d, 2, 1, 16).passed


def test_t_display():
    assert t_matrix(3, 9) == TriangularMatrix(gold.T3_9)
    assert t_coefficient(3, 8, 4) == comb(2, 1) * comb(2, 1) == 4


def test_t_threeway():
    for q in (2, 3):
        assert t_threeway_check(q, 27).passed
    assert t_matrix_via_kronecker(3, 9) == t_matrix(3, 9)
    assert t_matrix_via_overlay(3, 9) == t_matrix(3, 9)


def test_t2_is_sierpinski():
    assert t_matrix(2, 32) == sierpinski_matrix(2, 32)


def test_t_row():
    assert t_row(2, 8) == Polynomial([1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert t_row(3, 8) == Polynomial(gold.T3_9[8])
    for n in range(27):
        assert t_row(3, n) == t_matrix(3, 27).row_poly(n)


def test_t_row_sums():
    # evaluating the row polynomial at 1 gives 2**(digit sum)
    from genpascal.digits import digits

    for n in range(243):
        assert t_row(3, n).evaluate(1) == 2 ** sum(digits(n, 3))


def test_overlay_fractal_block_identity():
    # masked matrices of digit-multiplicative series split over digit blocks:
    # entry(Q n + i, Q m + j) = entry(n, m) * entry(i, j) for Q = q**k
    import random

    from genpascal.matrices import build_from_c, hadamard
    from genpascal.sequences import CSequence

    rng = random.Random(5)
    for q in (2, 3):
        base = [Fraction(1), Fraction(1)] + [
            Fraction(rng.choice([1, 2, 3, 5]), rng.randint(1, 4)) for _ in range(q - 2)
        ]
        coeffs = []
        for n in range(81):
            value = Fraction(1)
            t = n
            while t:
                value *= base[t % q]
                t //= q
            coeffs.append(value)
        overlay = hadamard(sierpinski_matrix(q, 81), build_from_c(CSequence.explicit(coeffs), 81))
        for k in (1, 2):
            block = q**k
            for row in range(81):
                for col in range(row + 1):
                    n, i = divmod(row, block)
                    m, j = divmod(col, block)
                    assert overlay.entry(row, col) == overlay.entry(n, m) * overlay.entry(i, j)


def test_masked_entry_digit_product():
    # entry of (a|q) is the product of its single-digit entries
    squared = carryless_convolve(ONES16, ONES16, 2, 15)
    m = masked_matrix(squared, 2, 16)
    for n in range(16):
        for mm in range(n + 1):
            value = Fraction(1)
            nn, mmm = n, mm
            while nn or mmm:
                value *= m.entry(nn % 2, mmm % 2)
                nn //= 2
                mmm //= 2
            assert m.entry(n, mm) == value


def test_masked_entry_block_split():
    # two-index form: entry(Q n + i, Q m + j) = entry(n,m) * entry(i,j), Q = q**k
    for q in (2, 3):
        size = 27 if q == 3 else 32
        ones = [Fraction(1)] * size
        series = carryless_convolve(ones, ones, q, size - 1)
        m = masked_matrix(series, q, size)
        block = q
        while block <= size:
            for row in range(size):
                for col in range(row + 1):
                    n, i = divmod(row, block)
                    mm, j = divmod(col, block)
                    assert m.entry(row, col) == m.entry(n, mm) * m.entry(i, j)
            block *= q
