import signal
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
import golden_matrices as gold
from fraction_oracles import FractionPolynomial, block_oracle, from_fn, sierpinski_oracle
from genpascal import zeroalg
from genpascal.errors import NotFractal, SizeMismatch
from genpascal.matrices import TriangularMatrix, identity_matrix, matmul
from genpascal.polynomials import Polynomial
from genpascal.verify import run_suite
from genpascal.zeroalg import (
    block_matrix,
    block_product_check,
    carryless_convolve,
    carryless_view,
    check_fractal,
    digit_binom,
    fractal_series,
    kronecker,
    masked_convolve,
    masked_matrix,
    sierpinski_matrix,
    sierpinski_selfsim_check,
    t_coefficient,
    t_matrix,
    t_matrix_via_kronecker,
    t_matrix_via_overlay,
    t_threeway_check,
)

ONES16 = [Fraction(1)] * 16
DELTA16 = [Fraction(1)] + [Fraction(0)] * 15
# ints, zeros and fractions, long enough for size q**3 + 2 at q = 6
SERIES = [1, Fraction(-2, 3), 0, 5] + [Fraction(3 * t - 7, t + 1) for t in range(4, 6**3 + 2)]


def test_digit_binom_values():
    assert digit_binom(2, 10, 8) == 1
    assert digit_binom(2, 12, 2) == 0
    assert digit_binom(5, 37, 37) == 1
    assert digit_binom(10, 5, 14) == 0  # m > n never dominates


@pytest.mark.parametrize("q", [2, 3, 10])
def test_digit_binom_is_zero_outside_the_triangle(q):
    # a negative n once kept the digit loop running: -1 // q == -1
    for n, m in [(-1, 0), (-1, -1), (-q**3, 2), (-5, -7), (0, -1), (q**4, -q), (0, 1), (q**5, q**5 + 1), (7, 15)]:
        assert digit_binom(q, n, m) == 0


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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(0, 3000))
@example(2, 2**11 - 1)  # n = q**k - 1 dominates every column
@example(2, 2**11)  # n = q**k dominates only 0 and itself
@example(3, 3**7 - 1)
@example(3, 3**7)
@example(12, 12**3 - 1)
@example(12, 12**3)
@example(7, 0)
def test_dominance_row_matches_the_per_entry_oracle(q, n):
    assert zeroalg._dominance_row(q, n) == oracle.dominance_row(q, n)


def test_kron_names_a_flipped_kronecker_entry(monkeypatch):
    # a product that is wrong in one entry must fail against the block read off the digits
    product = zeroalg.kronecker

    def flipped(a, b):
        den, rows = product(a, b).int_view()
        rows = [list(row) for row in rows]
        if len(rows) > 20:
            rows[20][9] = 1 - rows[20][9]
        return TriangularMatrix.from_view(den, rows)

    monkeypatch.setattr(zeroalg, "kronecker", flipped)
    report = run_suite("kron", 70)
    assert not report.passed
    ce = report.counterexample
    assert (ce["q"], ce["k"], ce["order"], ce["n"], ce["m"]) == (2, 4, "coarse-first", 20, 9)
    assert (ce["got"], ce["want"]) == ("1", "0")


def test_masked_matrix_cases():
    assert masked_matrix(ONES16, 2, 16) == sierpinski_matrix(2, 16)
    assert masked_matrix(DELTA16, 2, 16) == identity_matrix(16)
    with pytest.raises(SizeMismatch):
        masked_matrix([Fraction(1)] * 3, 2, 16)


def test_masked_matrix_keeps_the_series_fractions():
    a = [Fraction(1), Fraction(-2, 3), Fraction(5, 4), 7]
    m = masked_matrix(a, 2, 4)
    assert m.entry(3, 1) == a[2] and m.entry(2, 1) == 0 and m.entry(3, 0) == 7
    assert all(type(e) is Fraction for row in m.rows for e in row)


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


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fractal_series_is_the_digit_product(q):
    from genpascal.digits import digits

    base = [Fraction(1)] + [Fraction(3 * t - 7, t + 1) for t in range(1, q)]
    series = fractal_series(base, q, 80)
    assert len(series) == 81 and all(isinstance(x, Fraction) for x in series)
    for n, value in enumerate(series):
        expected = Fraction(1)
        for d in digits(n, q):
            expected *= base[d]
        assert value == expected
    assert fractal_series(base, q, q - 2) == base[: q - 1]


@pytest.mark.parametrize("degree", range(-5, 0))
def test_series_below_degree_zero_are_empty(degree):
    # a negative degree is not a slice from the end of the base
    base = [Fraction(1), Fraction(2), Fraction(3)]
    assert fractal_series(base, 3, degree) == []
    assert masked_convolve(base, base, 3, degree) == carryless_convolve(base, base, 3, degree) == []


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


mixed_series = st.lists(
    st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)),
    ),
    max_size=14,
)


@given(st.sampled_from([2, 3, 4]), mixed_series, mixed_series, st.integers(min_value=-1, max_value=16))
def test_masked_convolve_matches_the_fraction_loop(q, a, b, degree):
    got = masked_convolve(a, b, q, degree)
    assert got == oracle.masked_convolve(a, b, q, degree)
    assert all(type(c) is Fraction for c in got)
    assert masked_convolve(tuple(a), tuple(b), q, degree) == got


signed_rational = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)),
)


def digit_multiplicative(a, q):
    try:
        check_fractal(a, q, len(a) - 1)
    except NotFractal:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(min_value=1, max_value=16), st.data())
def test_masked_convolve_is_the_series_convolution_of_the_sierpinski_matrix(q, size, data):
    # the Fraction loop of the matrix's series algebra, on series the carryless fast path would refuse
    a = data.draw(st.lists(signed_rational, min_size=size, max_size=size))
    b = data.draw(st.lists(signed_rational, min_size=size, max_size=size))
    assume(not digit_multiplicative(a, q) and not digit_multiplicative(b, q))
    want = oracle.pascal_convolve(sierpinski_matrix(q, size), FractionPolynomial(a), FractionPolynomial(b))
    assert Polynomial(masked_convolve(a, b, q, size - 1)).coeffs == want.coeffs


def test_masked_row_all_ones():
    u15 = oracle.masked_row(ONES16, 2, 15)
    expected = Polynomial([1])
    for i in range(4):
        expected = expected * Polynomial([1] + [0] * (2**i - 1) + [1])
    assert u15.coeffs == expected.coeffs == Polynomial([1] * 16).coeffs
    assert oracle.masked_row(ONES16, 2, 0).coeffs == (1,)


def test_masked_row_squared_series():
    squared = carryless_convolve(ONES16, ONES16, 2, 15)
    assert oracle.masked_row(squared, 2, 3).coeffs == (4, 2, 2, 1)
    full = matmul(sierpinski_matrix(2, 16), sierpinski_matrix(2, 16))
    for n in range(16):
        assert oracle.masked_row(squared, 2, n).coeffs == full.row_poly(n).coeffs


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_t_matrix_matches_coefficients(q):
    sizes = [0, 1, q, q * q + 1, q**3 + 2]
    oracle = from_fn(sizes[-1], lambda n, m: t_coefficient(q, n, m))
    for size in sizes:
        assert t_matrix(q, size) == oracle.truncate(size)


def test_t_matrix_huge_q_costs_only_size():
    # size <= q: every row is its own last digit, so only size digits occur
    q, size = 10**6, 5
    assert t_matrix(q, size) == from_fn(size, lambda n, m: t_coefficient(q, n, m))
    assert sierpinski_matrix(q, size) == sierpinski_oracle(q, size)
    assert masked_matrix(SERIES, q, size) == oracle.masked_matrix(SERIES, q, size)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_digit_pattern_builders_match_their_entry_forms(q):
    sizes = [0, 1, q, q * q + 1, q**3 + 2]
    sierpinski = sierpinski_oracle(q, sizes[-1])
    masked = oracle.masked_matrix(SERIES, q, sizes[-1])
    for size in sizes:
        assert sierpinski_matrix(q, size) == sierpinski.truncate(size)
        assert masked_matrix(SERIES, q, size) == masked.truncate(size)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)])
def test_block_matrix_matches_its_entry_form(q, k):
    block = q**k
    for outer in (0, 1, q, q * q + 1):
        size = outer * block
        # series shorter than the blocks are read as zero-padded
        for a, b in ((SERIES[:outer], SERIES[:block]), (SERIES[: outer // 2 + 1], SERIES[2:block])):
            assert block_matrix(a, b, q, k, size) == block_oracle(a, b, q, k, size)


def test_t2_is_sierpinski():
    assert t_matrix(2, 32) == sierpinski_matrix(2, 32)


def test_t_row():
    assert oracle.t_row(2, 8).coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert oracle.t_row(3, 8).coeffs == Polynomial(gold.T3_9[8]).coeffs
    for n in range(27):
        assert oracle.t_row(3, n).coeffs == t_matrix(3, 27).row_poly(n).coeffs


def test_t_row_sums():
    # evaluating the row polynomial at 1 gives 2**(digit sum)
    from genpascal.digits import digits

    for n in range(243):
        assert sum(oracle.t_row(3, n).coeffs) == 2 ** sum(digits(n, 3))


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


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging when the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_t_matrix_via_kronecker_refuses_a_base_below_two(q):
    # before, its seed block of one row (none at q <= 0) never grew, and the loop never ended
    with time_limit(5), pytest.raises(ValueError, match=r"^q must be >= 2$"):
        t_matrix_via_kronecker(q, 3)


@pytest.mark.parametrize("q", [-2, 0, 1])
def test_series_refuse_a_base_below_two(q):
    # before, q = 1 and q = -2 looped forever in the digit count and q = 0 divided by zero;
    # check_fractal accepted any series with a_0 = 1 at q = 1
    calls = [
        lambda: fractal_series([1], q, 3),
        lambda: fractal_series([1, 2], q, 3),
        lambda: check_fractal([1, 1, 1, 1], q, 3),
        lambda: carryless_view((1, [1, 1, 1]), (1, [1, 1, 1]), q, 2),
        lambda: carryless_convolve([1, 1, 1], [1, 1, 1], q, 2),
    ]
    for call in calls:
        with time_limit(5), pytest.raises(ValueError, match=r"^q must be >= 2$"):
            call()
