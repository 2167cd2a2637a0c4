import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
import golden_matrices as gold
from fraction_oracles import from_fn
from genpascal import fractal
from genpascal.fractal import (
    b_functional_equation_check,
    carry_count,
    fast_gbinom_fractal,
    fractal_c_check,
    fractal_column,
    fractal_entry,
    fractal_matrix,
    fractal_row,
    pascal_prime_factorization,
)
from genpascal.digits import carry_count_rows, digits, valuation
from genpascal.matrices import TriangularMatrix, build_from_c, gbinom, hadamard, pascal_rows, subtract
from genpascal.polynomials import P_ZERO, Polynomial, w_poly
from genpascal.report import Report
from genpascal.sequences import BSequence, fractal_b
from genpascal.special import phi_q_matrix
from genpascal.specs import GPSpec
from genpascal.verify import run_suite
from genpascal.zeroalg import digit_binom, t_coefficient


def test_displays():
    assert fractal_matrix(2, 2, 16) == TriangularMatrix(gold.FRACTAL_2_16)
    assert fractal_matrix(3, 3, 18) == TriangularMatrix(gold.FRACTAL_3_18)
    assert fractal_matrix(0, 2, 16) == TriangularMatrix(gold.ZERO_2_16)
    assert list(fractal_matrix(0, 2, 16).rows[12]) == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_matches_mask_product():
    # finite Hadamard product of the mask factors with modulus <= N
    for q, size in ((2, 16), (3, 18)):
        product = phi_q_matrix(q, q, size)
        power = q * q
        while power <= size:
            product = hadamard(product, phi_q_matrix(q, power, size))
            power *= q
        assert fractal_matrix(q, q, size) == product


def test_fast_examples():
    assert fast_gbinom_fractal(2, 10, 3) == 8
    assert fast_gbinom_fractal(3, 12, 5) == 9
    assert fast_gbinom_fractal(2, 8, 4) == 2
    assert fast_gbinom_fractal(5, 17, 0) == 1
    assert fast_gbinom_fractal(2, 3, 7) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fast_equals_factorial(q):
    b = BSequence.fractal(q, q)
    for n in range(128):
        for m in range(n + 1):
            assert fast_gbinom_fractal(q, n, m) == gbinom(b, n, m)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=400), st.data())
@settings(max_examples=60)
def test_fast_equals_factorial_random(q, n, data):
    m = data.draw(st.integers(min_value=0, max_value=n))
    assert fast_gbinom_fractal(q, n, m) == gbinom(BSequence.fractal(q, q), n, m)


def borrows(q, n, m):
    """Borrows made while subtracting m from n (0 <= m <= n) digit by digit in base q."""
    count = borrow = 0
    while n or m:
        n, i = divmod(n, q)
        m, j = divmod(m, q)
        borrow = int(i < j + borrow)
        count += borrow
    return count


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**12 - 1), st.data())
@settings(max_examples=300)
def test_fast_path_is_q_to_the_borrows(q, n, data):
    # the lookup workload's index range, far past what the factorial oracle reaches
    m = data.draw(st.integers(min_value=0, max_value=n))
    k = borrows(q, n, m)
    assert fast_gbinom_fractal(q, n, m) == q**k
    # every weight is phi ** carry_count, the zero weight included: 0 ** 0 = 1 is digit dominance
    for phi in (0, 2, Fraction(-3, 2)):
        assert fractal_entry(phi, q, n, m) == Fraction(phi) ** k
    assert fractal_entry(0, q, n, m) == digit_binom(q, n, m)
    assert fast_gbinom_fractal(q, n, n + data.draw(st.integers(min_value=1, max_value=10**12))) == 0
    assert fast_gbinom_fractal(q, n, -data.draw(st.integers(min_value=1, max_value=10**12))) == 0


BASE_CALLS = {
    "valuation": lambda q: valuation(5, q),
    "carry_count_rows": lambda q: carry_count_rows(q, 4),
    "fractal_row": lambda q: fractal_row(q, 3),
    "fractal_row-outside": lambda q: fractal_row(q, -1),
    "fractal_column": lambda q: fractal_column(q, 3, 5),
    "fractal_column-outside": lambda q: fractal_column(q, -1, 5),
    "carry_count": lambda q: carry_count(q, 5, 2),
    "fractal_entry-weight-0": lambda q: fractal_entry(0, q, 5, 2),
    "fractal_entry-weight-2": lambda q: fractal_entry(2, q, 5, 2),
    "fast_gbinom_fractal-inside": lambda q: fast_gbinom_fractal(q, 5, 2),
    "fast_gbinom_fractal-outside": lambda q: fast_gbinom_fractal(q, 2, 5),
    "spec-entry": lambda q: GPSpec.fractal(2, q).entry(3, 1),
    "t_coefficient-inside": lambda q: t_coefficient(q, 3, 1),
    "t_coefficient-outside": lambda q: t_coefficient(q, 1, 3),
    # every spec of a digit kind checks its base when it is made, so both sides of the triangle raise
    "spec-entry-outside": lambda q: GPSpec.fractal(2, q).entry(3, 5),
    "hadamard-spec-entry-inside": lambda q: GPSpec.hadamard([GPSpec.fractal(2, q)]).entry(3, 1),
    "hadamard-spec-entry-outside": lambda q: GPSpec.hadamard([GPSpec.fractal(2, q)]).entry(3, 5),
    "phiq-spec-entry-inside": lambda q: GPSpec.phiq(2, q).entry(3, 1),
    "phiq-spec-entry-outside": lambda q: GPSpec.phiq(2, q).entry(3, 5),
    "zero-overlay-spec-entry-inside": lambda q: GPSpec("zero-overlay", q=q).entry(3, 1),
    "zero-overlay-spec-entry-outside": lambda q: GPSpec("zero-overlay", q=q).entry(3, 5),
    "tmatrix-spec-entry-inside": lambda q: GPSpec.tmatrix(q).entry(3, 1),
    "tmatrix-spec-entry-outside": lambda q: GPSpec.tmatrix(q).entry(3, 5),
    "fractal_matrix": lambda q: fractal_matrix(2, q, 4),
    "fractal_b": lambda q: fractal_b(q, 2, 4),
}


def test_digit_sum_tables_are_built_on_first_use(monkeypatch):
    # one table per base from 3 to TABLE_BASES, made by its first call inside the triangle: the digit
    # sums of one chunk q**k <= CHUNK < q**(k+1); none for q = 2 (bit counts) or the walking bases
    monkeypatch.setattr(fractal, "_digit_sums", {})
    carry_count(3, 5, 9)  # outside the triangle
    assert fractal._digit_sums == {}
    for q in range(2, 40):
        carry_count(q, 10**6, 12345)
        carry_count(q, 10**7, 10**6)
    tables = fractal._digit_sums
    assert sorted(tables) == list(range(3, fractal.TABLE_BASES + 1))
    for q, sums in tables.items():
        assert len(sums) <= fractal.CHUNK < len(sums) * q
        assert sums == [sum(digits(i, q)) for i in range(len(sums))]


@pytest.mark.parametrize("name", sorted(BASE_CALLS))
@pytest.mark.parametrize("q", [-2, 0, 1])
def test_base_below_two_raises(q, name):
    with pytest.raises(ValueError, match="(q|base) must be >= 2"):
        BASE_CALLS[name](q)


@pytest.mark.parametrize("kind", ["phiq", "fractal", "zero-overlay", "tmatrix", "qumbral", "qumbral-inverse"])
def test_spec_without_q_raises(kind):
    with pytest.raises(ValueError, match=f"spec kind '{kind}' requires q"):
        GPSpec(kind, phi=Fraction(2))


@pytest.mark.parametrize("q,k_max", [(2, 4), (3, 3)])
def test_digit_block_identity_dominant(q, k_max):
    # (q^k n + i, q^k m + j) splits as (n,m)*(i,j) when i >= j
    b = BSequence.fractal(q, q)
    for k in range(1, k_max + 1):
        block = q**k
        if block > 27:
            continue
        for n in range(6):
            for m in range(n + 1):
                for i in range(block):
                    for j in range(i + 1):
                        left = gbinom(b, block * n + i, block * m + j)
                        assert left == gbinom(b, n, m) * gbinom(b, i, j)


@pytest.mark.parametrize("q,k_max", [(2, 4), (3, 3)])
def test_digit_block_identity_carrying(q, k_max):
    # both right-hand forms for i < j agree with the direct value
    b = BSequence.fractal(q, q)
    for k in range(1, k_max + 1):
        block = q**k
        if block > 27:
            continue
        for n in range(1, 6):
            for m in range(n):
                for j in range(1, block):
                    for i in range(j):
                        direct = gbinom(b, block * n + i, block * m + j)
                        edge = gbinom(b, block + i, j)
                        assert direct == b[n] * gbinom(b, n - 1, m) * edge
                        assert direct == b[m + 1] * gbinom(b, n, m + 1) * edge


def test_row_recurrence_examples():
    u2 = fractal_row(2, 2)
    assert fractal_row(2, 5) == w_poly(1) * u2.substitute_power(2)
    assert fractal_row(2, 5) == Polynomial([1, 1, 2, 2, 1, 1])
    assert fractal_row(2, 4) == Polynomial([1, 4, 2, 4, 1])
    assert fractal_row(2, 0) == Polynomial([1])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rows_and_columns_match_matrix(q):
    size = 64
    matrix = fractal_matrix(q, q, size)
    for n in range(size):
        assert fractal_row(q, n) == matrix.row_poly(n)
        assert fractal_column(q, n, size) == matrix.column_poly(n)


def bumped(p, k, delta):
    """p with delta added to its coefficient of x**k, as p + delta x**k."""
    cs = [*p.coeffs, *[0] * (k + 1 - len(p.coeffs))]
    cs[k] += delta
    return Polynomial(cs)


# verify's report for a corrupted row or column, recorded from the Fraction-stored
# Polynomial: the got/want texts are Polynomial.__repr__ and must not change
CORRUPTED_REPORTS = [
    (
        "fractal_row", (3, 7), lambda p: bumped(p, 2, Fraction(1, 3)), 12,
        '{"suite": "recurrences", "pass": false, "counterexample": {"q": 3, "n": 7, "got": "Polynomial(['
        'Fraction(1, 1), Fraction(1, 1), Fraction(10, 3), Fraction(1, 1), Fraction(1, 1), Fraction(3, 1), '
        'Fraction(1, 1), Fraction(1, 1)])", "want": "Polynomial([Fraction(1, 1), Fraction(1, 1), '
        'Fraction(3, 1), Fraction(1, 1), Fraction(1, 1), Fraction(3, 1), Fraction(1, 1), Fraction(1, 1)])", '
        '"subsuite": "recurrence-rows"}, "checked": 72}',
    ),
    (
        "fractal_row", (2, 6), lambda p: Polynomial(p.coeffs[:4]), 9,
        '{"suite": "recurrences", "pass": false, "counterexample": {"q": 2, "n": 6, "got": "Polynomial(['
        'Fraction(1, 1), Fraction(2, 1), Fraction(1, 1), Fraction(4, 1)])", "want": "Polynomial(['
        'Fraction(1, 1), Fraction(2, 1), Fraction(1, 1), Fraction(4, 1), Fraction(1, 1), Fraction(2, 1), '
        'Fraction(1, 1)])", "subsuite": "recurrence-rows"}, "checked": 54}',
    ),
    (
        "fractal_column", (5, 2), lambda p: bumped(p, 9, Fraction(5, 2)), 12,
        '{"suite": "recurrences", "pass": false, "counterexample": {"q": 5, "n": 2, "got": "Polynomial(['
        'Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(5, 1), '
        'Fraction(5, 1), Fraction(1, 1), Fraction(1, 1), Fraction(7, 2), Fraction(5, 1), Fraction(5, 1)])", '
        '"want": "Polynomial([Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), '
        'Fraction(5, 1), Fraction(5, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(5, 1), '
        'Fraction(5, 1)])", "subsuite": "recurrence-columns"}, "checked": 72}',
    ),
]


@pytest.mark.parametrize("name,at,change,size,text", CORRUPTED_REPORTS, ids=["row", "short-row", "column"])
def test_recurrence_failure_report_is_pinned(monkeypatch, name, at, change, size, text):
    original = getattr(fractal, name)

    def corrupted(q, n, *size_arg):
        out = original(q, n, *size_arg)
        return change(out) if (q, n) == at else out

    # the recursions read the module's binding, so rows and columns built from a corrupted one are corrupted too
    monkeypatch.setattr(fractal, name, corrupted)
    assert run_suite("recurrences", size).to_json() == text


@pytest.mark.parametrize("q,n", [(2, -1), (3, -4), (5, -100)])
def test_rows_and_columns_outside_the_triangle_are_zero(q, n):
    # as the per-entry forms read entries outside the triangle; a negative row used to recurse without end
    assert fractal_row(q, n) == P_ZERO
    assert fractal_row(q, n, {}) == P_ZERO
    assert fractal_column(q, n, 6) == P_ZERO


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 11), st.integers(0, 64), st.integers(0, 300))
@example(2, 1, 37)  # a lone column at size 1 recurses through inner size 1 again and again
@example(7, 5, 6)  # q >= size: every column is a seed
@example(11, 4, 200)  # q > size: the strided copies skip the residues at or past the size
@example(5, 12, 60)  # lone >= size: the lone column is zero, its inner columns past the inner size too
@example(11, 1, 11)  # size 1, a lone column at the first non-seed index
@example(3, 0, 0)
@example(2, 64, 300)
def test_table_built_rows_and_columns_match_the_recursive_oracle(q, size, lone):
    rows, columns = {}, {}
    for n in range(size):
        rows[n] = fractal_row(q, n, rows)
        columns[n, size] = fractal_column(q, n, size, columns)
    assert [rows[n].coeffs for n in range(size)] == [oracle.fractal_row(q, n).coeffs for n in range(size)]
    # the inner columns the table built along the way, at every inner size, too
    for (n, inner), column in columns.items():
        assert column.coeffs == oracle.fractal_column(q, n, inner).coeffs, (n, inner)
    assert fractal_row(q, lone).coeffs == oracle.fractal_row(q, lone).coeffs
    assert fractal_column(q, lone, size).coeffs == oracle.fractal_column(q, lone, size).coeffs
    assert fractal_column(q, lone, 1).coeffs == oracle.fractal_column(q, lone, 1).coeffs


def counting(monkeypatch):
    """Wrap the module's row and column builders; the counter keys are
    (q, n) for a row and (q, n, size) for a column."""
    calls = Counter()
    row, column = fractal.fractal_row, fractal.fractal_column

    def counted_row(q, n, *table):
        calls[q, n] += 1
        return row(q, n, *table)

    def counted_column(q, n, size, *table):
        calls[q, n, size] += 1
        return column(q, n, size, *table)

    monkeypatch.setattr(fractal, "fractal_row", counted_row)
    monkeypatch.setattr(fractal, "fractal_column", counted_column)
    return calls


def test_recurrences_build_each_row_and_column_once(monkeypatch):
    calls = counting(monkeypatch)
    assert run_suite("recurrences", 31).passed
    assert max(calls.values()) == 1
    outer = {(q, n) for q in (2, 3, 5) for n in range(31)} | {(q, n, 31) for q in (2, 3, 5) for n in range(31)}
    assert outer <= set(calls)


def test_recurrences_make_no_polynomial_product(monkeypatch):
    # each term of a recurrence is a strided copy of the inner ints, never a Polynomial product
    calls = Counter()
    product = Polynomial.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    assert run_suite("recurrences", 31).passed
    assert calls["mul"] == 0


@pytest.mark.parametrize("q,n", [(2, 5000), (3, 4000), (7, 2400)])
def test_a_lone_row_or_column_builds_logarithmically_many(monkeypatch, q, n):
    calls = counting(monkeypatch)
    levels = 1 + int(math.log(n, q))
    row = fractal.fractal_row(q, n)
    assert len(row.coeffs) == n + 1
    assert len(calls) <= 3 * levels and max(calls.values()) == 1
    calls.clear()
    column = fractal.fractal_column(q, n // 5, n)
    assert column.coeffs == oracle.fractal_column(q, n // 5, n).coeffs
    assert len(calls) <= 3 * levels and max(calls.values()) == 1


def test_prime_factorization_small():
    assert pascal_prime_factorization(1).passed
    assert pascal_prime_factorization(16).passed


def test_prime_factorization_entry():
    assert fast_gbinom_fractal(2, 6, 3) == 4
    assert fast_gbinom_fractal(3, 6, 3) == 1
    assert fast_gbinom_fractal(5, 6, 3) == 5


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1999).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((5000, 2500))  # about 670 factors
@example((4999, 1234))
def test_prime_fractal_hadamard_spec_is_pascal_per_entry(nm):
    # the paper's factorization one entry at a time: no matrix is built, so n reaches past the suites' sizes
    n, m = nm
    primes = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert GPSpec.hadamard([GPSpec.fractal(p, p) for p in primes]).entry(n, m) == math.comb(n, m)


def reference_prime_factorization(size):
    """The entry-by-entry loop over fast_gbinom_fractal that the carry-count
    tables replaced, against ``math.comb``."""
    primes = [p for p in range(2, size) if all(p % d for d in range(2, p))]
    checked = size * (size + 1) // 2
    for n in range(size):
        relevant = [p for p in primes if p <= n]
        for m in range(n + 1):
            product = 1
            for p in relevant:
                product *= fast_gbinom_fractal(p, n, m)
            if product != math.comb(n, m):
                ce = {"n": n, "m": m, "got": str(product), "want": str(math.comb(n, m))}
                return Report("primes", False, ce, checked)
    return Report("primes", True, None, checked)


@pytest.mark.parametrize(
    "size,bad", [(12, (6, 3)), (12, (11, 0)), (12, (10, 10)), (64, (63, 17)), (2, (1, 1))]
)
def test_prime_factorization_failure_report(monkeypatch, size, bad):
    # the Pascal rows are the independent side of the check: break them at one entry
    def corrupted(size):
        return [[x + ((n, m) == bad) for m, x in enumerate(row)] for n, row in enumerate(pascal_rows(size))]

    monkeypatch.setattr(fractal, "pascal_rows", corrupted)
    report = pascal_prime_factorization(size)
    n, m = bad
    assert not report.passed
    want = {"n": n, "m": m, "got": str(math.comb(n, m)), "want": str(math.comb(n, m) + 1)}
    assert report.counterexample == want
    assert report.checked == size * (size + 1) // 2


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 30])
def test_prime_factorization_matches_reference(size):
    assert pascal_prime_factorization(size) == reference_prime_factorization(size)


def test_c_series_golden():
    b = BSequence.fractal(2, 2)
    for n, e in enumerate(gold.C_EXPONENTS_2_21):
        assert Fraction(1, 2**e) == 1 / b.factorial(n)
    assert fractal_c_check(2, 21).passed
    c3 = oracle.c_fractal(3)
    assert c3[3] == Fraction(1, 3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_c_check(q):
    assert fractal_c_check(q, 40).passed


@pytest.mark.parametrize("q", [2, 3, 5])
def test_b_functional_equation(q):
    report = b_functional_equation_check(q, 23)
    assert report.passed


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 63))
@example(2, 0)
@example(7, 63)
@example(3, 63)
def test_series_checks_match_the_fraction_loops(q, degree):
    assert fractal_c_check(q, degree).to_dict() == oracle.fractal_c_check(q, degree).to_dict()
    got = b_functional_equation_check(q, degree).to_dict()
    assert got == oracle.b_functional_equation_check(q, degree).to_dict()


def test_primes_upto_is_trial_division():
    # the sieve stops at isqrt(n), so the squares of primes are the edge cases
    for n in range(-1, 170):
        assert fractal._primes_upto(n) == [p for p in range(2, n + 1) if all(p % d for d in range(2, p))], n


def test_b_golden_series():
    b2 = BSequence.fractal(2, 2)
    assert [b2[n] for n in range(24)] == gold.B_SERIES_2_23
    b3 = BSequence.fractal(3, 3)
    assert [b3[n] for n in range(24)] == gold.B_SERIES_3_23


def test_difference_display():
    full = fractal_matrix(2, 2, 12)
    masked = hadamard(full, phi_q_matrix(0, 4, 12))
    assert masked == TriangularMatrix(gold.FRACTAL_2_MASK_4_12)
    assert subtract(full, masked) == TriangularMatrix(gold.DIFFERENCE_12)
    assert hadamard(full, phi_q_matrix(0, 2, 12)) == TriangularMatrix(gold.FRACTAL_2_MASK_2_12)


def test_group_law():
    size = 32
    a = fractal_matrix(2, 2, size)
    b = fractal_matrix(3, 2, size)
    assert hadamard(a, b) == fractal_matrix(6, 2, size)
    inv = fractal_matrix(Fraction(1, 2), 2, size)
    from genpascal.matrices import all_ones

    assert hadamard(a, inv) == all_ones(size)
    assert fractal_matrix(1, 2, size) == all_ones(size)


def test_weighted_family_matches_series():
    # for nonzero weight the family is the matrix of c_n = 1/b_n!
    for phi in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        for q in (2, 3):
            c = oracle.c_from_b(BSequence.fractal(q, phi))
            assert fractal_matrix(phi, q, 20) == build_from_c(c, 20)


def test_carry_count():
    assert carry_count(2, 10, 3) == 3
    assert carry_count(3, 12, 5) == 2
    assert carry_count(2, 7, 3) == 0


def test_entry_zero_weight_is_mask():
    from genpascal.zeroalg import digit_binom

    for n in range(30):
        for m in range(n + 1):
            assert fractal_entry(0, 2, n, m) == digit_binom(2, n, m)


@pytest.mark.parametrize("phi", [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-7, 3)])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_matrix_matches_entry_form(q, phi):
    # the composite bases 4 and 6 exercise the valuation step of the digit recursion
    sizes = [0, 1, q, q * q + 1, q**3 + 2]
    oracle = from_fn(sizes[-1], lambda n, m: fractal_entry(phi, q, n, m))
    for size in sizes:
        assert fractal_matrix(phi, q, size) == oracle.truncate(size)


def test_matrix_huge_q_costs_only_size():
    q, size = 10**6, 5
    oracle = from_fn(size, lambda n, m: fractal_entry(Fraction(3, 2), q, n, m))
    assert fractal_matrix(Fraction(3, 2), q, size) == oracle
