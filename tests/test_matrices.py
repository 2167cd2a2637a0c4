import random
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import is_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
import golden_matrices as gold
from fraction_oracles import FractionPolynomial
from genpascal.errors import SizeMismatch, ZeroFactor
from genpascal.matrices import (
    TriangularMatrix,
    all_ones,
    build_from_c,
    gbinom,
    hadamard,
    identity_check,
    identity_matrix,
    matmul,
    pascal_rows,
    subtract,
)
from genpascal.polynomials import Polynomial
from genpascal.rationals import ONE
from genpascal.report import Report
from genpascal.sequences import BSequence, CSequence
from genpascal.special import phi_q_matrix
from genpascal.verify import golden_family, random_c_sequence
from genpascal.zeroalg import kronecker


def as_matrix(table):
    return TriangularMatrix(table)


def test_pascal_display():
    m = build_from_c(CSequence.exponential(), 5)
    assert m == as_matrix(gold.PASCAL_5)
    assert list(m.rows[4]) == [1, 4, 6, 4, 1]


def per_entry_from_c(c, size):
    return tuple(tuple(c[m] * c[n - m] / c[n] for m in range(n + 1)) for n in range(size))


def assert_matches_per_entry(c, size):
    rows = build_from_c(c, size).rows
    assert rows == per_entry_from_c(c, size)
    assert all(type(e) is Fraction for row in rows for e in row)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            Fraction,
            st.integers(min_value=-9, max_value=9).filter(bool),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=14,
    )
)
def test_build_from_c_matches_the_per_entry_ratio(tail):
    values = [1, 1] + tail
    for size in range(len(values) + 1):
        assert_matches_per_entry(CSequence.explicit(values), size)


@pytest.mark.parametrize("make", [CSequence.exponential, lambda: oracle.c_fractal(2)])
@pytest.mark.parametrize("size", [0, 1, 2, 17])
def test_build_from_c_named_series_match_the_per_entry_ratio(make, size):
    assert_matches_per_entry(make(), size)


def test_build_from_c_zero_coefficient_divides_by_zero():
    c = CSequence("zero", lambda n: 1 if n < 2 else 0)
    assert build_from_c(c, 2) == all_ones(2)
    with pytest.raises(ZeroDivisionError):
        build_from_c(c, 3)


def test_entries_are_exactly_fractions():
    kept = Fraction(-3, 7)
    m = TriangularMatrix([[1], [True, False], [kept, 2, Fraction(5)]])
    assert all(type(e) is Fraction for row in m.rows for e in row)
    assert m.rows[1] == (1, 0)
    assert m.entry(2, 0) == kept


def algebra_inputs(size):
    """Integer, mixed-denominator and random c-sequence matrices of one size."""
    return [
        build_from_c(CSequence.exponential(), size),
        phi_q_matrix(Fraction(1, 2), 3, size),
        phi_q_matrix(Fraction(-2, 3), 2, size),
        build_from_c(random_c_sequence(random.Random(size), size), size),
    ]


# the Fraction loops the integer view replaced, kept as oracles
def reference_matmul(a, b):
    return oracle.from_fn(
        a.size, lambda n, m: sum((a.rows[n][k] * b.rows[k][m] for k in range(m, n + 1)), Fraction(0))
    )


def reference_kronecker(a, b):
    nb = b.size
    return oracle.from_fn(
        a.size * nb, lambda n, m: a.entry(n // nb, m // nb) * b.entry(n % nb, m % nb)
    )


def entrywise(op):
    return lambda a, b: oracle.from_fn(a.size, lambda n, m: op(a.rows[n][m], b.rows[n][m]))


ALGEBRA = {
    "matmul": (matmul, reference_matmul),
    "hadamard": (hadamard, entrywise(lambda x, y: x * y)),
    "subtract": (subtract, entrywise(lambda x, y: x - y)),
    "kronecker": (kronecker, reference_kronecker),
}


@pytest.mark.parametrize("size", [0, 1, 5])
@pytest.mark.parametrize("name", sorted(ALGEBRA))
def test_algebra_results_are_exactly_fractions(name, size):
    # int / int is a float in Python: no raw int may leave the integer view
    op, reference = ALGEBRA[name]
    for a in algebra_inputs(size):
        for b in algebra_inputs(size):
            got = op(a, b)
            assert all(type(e) is Fraction for row in got.rows for e in row)
            assert got == reference(a, b)


def test_kronecker_of_unequal_sizes():
    a, b = phi_q_matrix(Fraction(1, 2), 2, 3), build_from_c(CSequence.exponential(), 4)
    for x, y in ((a, b), (b, a), (a, TriangularMatrix([])), (TriangularMatrix([]), b)):
        got = kronecker(x, y)
        assert got.size == x.size * y.size
        assert all(type(e) is Fraction for row in got.rows for e in row)
        assert got == reference_kronecker(x, y)


def test_int_view_is_the_lcm_of_the_denominators():
    m = TriangularMatrix([[1], [Fraction(1, 2), 1], [Fraction(-1, 3), Fraction(5, 4), 1]])
    den, rows = m.int_view()
    assert den == 12 == lcm(2, 3, 4)
    assert rows == ((12,), (6, 12), (-4, 15, 12))
    assert all(type(x) is int for row in rows for x in row)
    assert build_from_c(CSequence.exponential(), 4).int_view() == (1, ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1)))


def test_int_view_is_cached_on_an_immutable_matrix():
    m = phi_q_matrix(Fraction(3, 5), 2, 6)
    view = m.int_view()
    assert m.int_view() is view
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(AttributeError):
        m._view = (1, ())
    assert m.int_view() is view


def test_int_view_of_size_zero():
    empty = TriangularMatrix([])
    assert empty.int_view() == (1, ())
    assert TriangularMatrix.from_view(1, []) == empty
    assert identity_check(empty) == Report("identities", True, None, 0)


def test_from_view_gives_exact_fractions():
    m = TriangularMatrix.from_view(6, [[6], [3, 12], [2, 4, 6]])
    assert m == TriangularMatrix([[1], [Fraction(1, 2), 2], [Fraction(1, 3), Fraction(2, 3), 1]])
    assert all(type(e) is Fraction for row in m.rows for e in row)
    assert all(type(e) is Fraction for row in TriangularMatrix.from_view(1, [[1], [2, 1]]).rows for e in row)


def test_equal_entries_share_one_fraction():
    big = [int("9" * 30), int("9" * 30)]  # equal ints, two objects
    m = TriangularMatrix([[big[0]], [big[1], True], [1, 7, 7]])
    assert m.entry(1, 0) is m.entry(0, 0)
    assert m.entry(2, 2) is m.entry(2, 1)
    assert m.entry(1, 1) is m.entry(2, 0)  # True and 1 are one value
    assert m.entry(1, 1) == Fraction(1) and type(m.entry(1, 1).numerator) is int
    with pytest.raises(TypeError):
        TriangularMatrix([[[1]]])


def test_geometric_gives_all_ones():
    assert build_from_c(oracle.c_geometric(), 6) == all_ones(6)


def test_fractal_build_from_c():
    m = build_from_c(oracle.c_fractal(2), 11)
    assert list(m.rows[10]) == [1, 2, 1, 8, 2, 4, 2, 8, 1, 2, 1]


def test_gbinom_values():
    assert gbinom(BSequence.fractal(2, 2), 8, 1) == 8
    assert gbinom(BSequence.fractal(3, 3), 9, 3) == 3
    assert gbinom(BSequence.naturals(), 7, 0) == 1
    assert gbinom(BSequence.naturals(), 3, 5) == 0


def test_gbinom_recurrence_examples():
    assert oracle.gbinom_via_recurrence(BSequence.fractal(2, 2), 4, 2) == 2
    assert oracle.gbinom_via_recurrence(BSequence.naturals(), 5, 2) == 10
    assert oracle.gbinom_via_recurrence(BSequence.naturals(), 6, 6) == 1


@pytest.mark.parametrize(
    "b",
    [BSequence.naturals(), BSequence.fractal(2, 2), BSequence.fractal(3, 3)],
    ids=["naturals", "fractal2", "fractal3"],
)
def test_two_definitions_agree(b):
    # entries from the coefficient series match the factorial ratios
    m = build_from_c(oracle.c_from_b(b), 32)
    for n in range(32):
        for k in range(n + 1):
            assert m.entry(n, k) == gbinom(b, n, k)


nonzero_fraction = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=9)
)
weights = st.one_of(
    st.just(BSequence.naturals()),
    st.builds(BSequence.fractal, st.integers(2, 5), nonzero_fraction),
    st.lists(nonzero_fraction, min_size=24, max_size=24).map(lambda vs: BSequence.explicit([0, *vs])),
    st.lists(nonzero_fraction, min_size=24, max_size=24).map(
        lambda vs: oracle.b_from_c(CSequence.explicit([1, 1, *vs]))
    ),
)


@settings(max_examples=60)
@given(weights, st.data())
def test_gbinom_matches_the_fraction_factorials(b, data):
    for _ in range(8):
        n = data.draw(st.integers(0, 24))
        m = data.draw(st.integers(-1, n + 1))
        got = gbinom(b, n, m)
        assert got == oracle.gbinom(b, n, m) and type(got) is Fraction
    for n in range(25):
        assert b.factorial(n) == oracle.factorial(b, n) and type(b.factorial(n)) is Fraction


def test_gbinom_names_the_first_zero_weight():
    b = BSequence.explicit([0, 3, 0, Fraction(1, 2), 0])
    assert gbinom(b, 1, 1) == 1
    for n, m in ((2, 1), (4, 1), (4, 0)):
        with pytest.raises(ZeroFactor, match=r"^b_2 = 0 in explicit$"):
            gbinom(b, n, m)
    assert gbinom(b, 1, 2) == 0  # above the diagonal no factorial is read
    with pytest.raises(ZeroFactor, match=r"^b_2 = 0 in fractal\(2,0\)$"):
        gbinom(BSequence.fractal(2, 0), 3, 1)


@pytest.mark.parametrize(
    "b",
    [BSequence.naturals(), BSequence.fractal(2, 2), BSequence.fractal(3, 3)],
    ids=["naturals", "fractal2", "fractal3"],
)
def test_recurrence_equals_factorial(b):
    # exhaustive below 64 via a shared addition-rule table; the one-shot
    # entry points are sampled separately (they rebuild the table per call)
    size = 64
    table = [[Fraction(1)]]
    for n in range(1, size):
        prev = table[-1]
        row = [Fraction(1)]
        for m in range(1, n):
            row.append(prev[m - 1] + (b[n] - b[m]) / b[n - m] * prev[m])
        row.append(Fraction(1))
        table.append(row)
    for n in range(size):
        for m in range(n + 1):
            assert table[n][m] == gbinom(b, n, m)
    for n in range(0, size, 9):
        for m in range(n + 1):
            assert oracle.gbinom_via_recurrence(b, n, m) == table[n][m]


def test_hadamard_identity_element():
    m = build_from_c(CSequence.exponential(), 8)
    assert hadamard(m, all_ones(8)) == m


def test_hadamard_triple_product():
    from genpascal.fractal import fractal_matrix

    p2 = fractal_matrix(2, 2, 7)
    p3 = fractal_matrix(3, 3, 7)
    p5 = fractal_matrix(5, 5, 7)
    prod = hadamard(hadamard(p2, p3), p5)
    assert p2.entry(6, 3) == 4
    assert p3.entry(6, 3) == 1
    assert p5.entry(6, 3) == 5
    assert prod.entry(6, 3) == 20 == Fraction(20)


def test_hadamard_size_mismatch():
    with pytest.raises(SizeMismatch):
        hadamard(all_ones(3), all_ones(4))


def test_hadamard_group_closure():
    from genpascal.fractal import fractal_matrix

    a = fractal_matrix(2, 2, 12)
    b = fractal_matrix(3, 3, 12)
    assert identity_check(hadamard(a, b)).passed


def test_hadamard_inverse():
    # the group inverse is the entrywise reciprocal: for a mask, the mask of weight 1/phi
    m = phi_q_matrix(2, 2, 9)
    inverse = oracle.hadamard_inverse(m)
    assert inverse == phi_q_matrix(Fraction(1, 2), 2, 9)
    assert hadamard(m, inverse) == hadamard(inverse, m) == all_ones(9)


def test_identity_check_passes():
    assert identity_check(build_from_c(CSequence.exponential(), 16)).passed
    assert identity_check(build_from_c(oracle.c_fractal(3), 18)).passed


def test_identity_check_catches_symmetry_break():
    rows = [list(r) for r in build_from_c(CSequence.exponential(), 4).rows]
    rows[3][1] = Fraction(9)
    report = identity_check(TriangularMatrix(rows))
    assert not report.passed
    assert report.counterexample["identity"] == "symmetry"


def test_identity_check_catches_shift_break():
    # a single off-diagonal bump that stays symmetric needs the shift identity
    rows = [list(r) for r in build_from_c(CSequence.exponential(), 5).rows]
    rows[2][1] = Fraction(5)
    report = identity_check(TriangularMatrix(rows))
    assert not report.passed
    assert report.counterexample["identity"] == "shift"


def test_identity_check_catches_column0():
    rows = [list(r) for r in build_from_c(CSequence.exponential(), 3).rows]
    rows[2][0] = Fraction(2)
    report = identity_check(TriangularMatrix(rows))
    assert not report.passed
    assert report.counterexample["identity"] == "column0"


def test_pascal_convolve_cauchy():
    a = FractionPolynomial([1, 1, 1])
    b = FractionPolynomial([1, 2])
    got = oracle.pascal_convolve(all_ones(6), a, b)
    assert got == (a * b).truncate(5)


def test_pascal_convolve_zero_pattern():
    from genpascal.fractal import fractal_matrix

    ones = FractionPolynomial([1] * 16)
    g = oracle.pascal_convolve(fractal_matrix(0, 2, 16), ones, ones)
    assert g.coefficient(15) == 16


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6),
)
def test_pascal_convolve_commutes(xs, ys):
    m = build_from_c(CSequence.exponential(), 8)
    a = FractionPolynomial([Fraction(x) for x in xs])
    b = FractionPolynomial([Fraction(y) for y in ys])
    assert oracle.pascal_convolve(m, a, b) == oracle.pascal_convolve(m, b, a)


def test_pascal_convolve_bilinear():
    m = build_from_c(oracle.c_fractal(2), 8)
    a = FractionPolynomial([1, 2, 3])
    b = FractionPolynomial([0, 1, 1])
    c = FractionPolynomial([2, 0, 5])
    left = oracle.pascal_convolve(m, a, b + c)
    right = oracle.pascal_convolve(m, a, b) + oracle.pascal_convolve(m, a, c)
    assert left == right


def test_matmul_against_identity():
    m = build_from_c(CSequence.exponential(), 6)
    assert matmul(m, identity_matrix(6)) == m
    assert matmul(identity_matrix(6), m) == m


def test_subtract():
    m = all_ones(3)
    zero = subtract(m, m)
    assert all(e == 0 for row in zero.rows for e in row)


def test_row_column_polys():
    m = build_from_c(CSequence.exponential(), 5)
    assert m.row_poly(2) == Polynomial([1, 2, 1])
    assert m.column_poly(1) == Polynomial([0, 1, 2, 3, 4])


def test_row_and_column_polys_refuse_negative_indices():
    # a negative index used to wrap: row_poly(-1) gave row 3 and column_poly(-1) the polynomial 1
    from genpascal.fractal import fractal_matrix

    m = fractal_matrix(2, 2, 4)
    for poly, index in ((m.row_poly, -1), (m.row_poly, -4), (m.column_poly, -1), (m.column_poly, -5)):
        with pytest.raises(IndexError, match=f"negative (row|column) index {index}$"):
            poly(index)
    with pytest.raises(IndexError):
        m.row_poly(4)
    assert m.row_poly(3) == Polynomial(m.rows[3])
    assert m.column_poly(3) == Polynomial([0, 0, 0, 1])
    assert m.column_poly(4) == m.column_poly(9) == Polynomial()  # columns the truncation cuts off


def reference_identity_check(a, suite="identities"):
    """The Fraction loop identity_check ran before the integer view."""
    size = a.size
    checked = 0
    for n in range(size):
        checked += 1
        if a.rows[n][0] != 1:
            return Report(suite, False, {"identity": "column0", "n": n, "value": str(a.rows[n][0])}, checked)
        for m in range(n + 1):
            checked += 1
            if a.rows[n][m] != a.rows[n][n - m]:
                return Report(suite, False, {"identity": "symmetry", "n": n, "m": m}, checked)
    for n in range(size):
        for p in range(size - n):
            for q in range(p + 1, size - n):
                np_, nq = a.rows[n + p], a.rows[n + q]
                for m in range(n + 1):
                    checked += 1
                    lhs = nq[q] * np_[m + p] * a.rows[m + p][p]
                    rhs = np_[p] * nq[m + q] * a.rows[m + q][q]
                    if lhs != rhs:
                        return Report(
                            suite, False, {"identity": "shift", "n": n, "m": m, "p": p, "q": q}, checked
                        )
    return Report(suite, True, None, checked)


small_fractions = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@st.composite
def checked_matrices(draw):
    """A golden-family or random c-sequence matrix, possibly with one entry
    (or one symmetric pair of entries) replaced."""
    size = draw(st.integers(min_value=0, max_value=9))
    if draw(st.booleans()):
        base = draw(st.sampled_from(golden_family(size)))[1]
    else:
        base = build_from_c(random_c_sequence(random.Random(draw(st.integers(0, 2**16))), size), size)
    rows = [list(row) for row in base.rows]
    if size and draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=size - 1))
        m = draw(st.integers(min_value=0, max_value=n))
        rows[n][m] = draw(small_fractions)
        if draw(st.booleans()):
            rows[n][n - m] = rows[n][m]  # keeps symmetry, so only the shift identity can see it
    return TriangularMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(checked_matrices())
def test_identity_check_matches_the_fraction_loop(matrix):
    assert identity_check(matrix, "s") == reference_identity_check(matrix, "s")


golden_at = cache(golden_family)


@st.composite
def golden_corruptions(draw):
    """A golden-family matrix of size <= 11 with one entry moved by a small
    delta, or with the entry and its mirror (n, n-m) moved alike, which keeps
    symmetry so that the shift identity is what sees it."""
    size = draw(st.integers(min_value=1, max_value=11))
    name, base = draw(st.sampled_from(golden_at(size)))
    den, ints = base.int_view()
    rows = [list(row) for row in ints]
    n = draw(st.integers(min_value=0, max_value=size - 1))
    m = draw(st.integers(min_value=0, max_value=n))
    delta = draw(st.sampled_from([1, -1, 2, den]))
    rows[n][m] += delta
    if m != n - m and draw(st.booleans()):
        rows[n][n - m] += delta
    return name, TriangularMatrix.from_view(den, rows)


@settings(max_examples=300, deadline=None)
@given(golden_corruptions())
@example(("pascal-row-4", TriangularMatrix.from_view(1, [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 5, 6, 5, 1]])))
def test_identity_check_matches_the_per_shift_loop(corrupted):
    name, matrix = corrupted
    assert identity_check(matrix, name) == oracle.identity_check(matrix, name)


@pytest.mark.parametrize("value", [Fraction(3, 2), Fraction(0), Fraction(-1), Fraction(7)])
def test_column0_counterexample_keeps_the_fraction_text(value):
    for name, matrix in golden_family(6) + [("mixed", phi_q_matrix(Fraction(1, 2), 2, 6))]:
        rows = [list(row) for row in matrix.rows]
        rows[4][0] = value
        corrupted = TriangularMatrix(rows)
        report = identity_check(corrupted)
        assert report == reference_identity_check(corrupted), name
        assert report.counterexample == {"identity": "column0", "n": 4, "value": str(value)}
        assert report.checked == 2 + 3 + 4 + 5 + 1  # rows 0..3 pass column 0 and symmetry


def rows_of(size):
    return st.tuples(*(st.lists(st.integers(-30, 30), min_size=n + 1, max_size=n + 1) for n in range(size)))


view_rows = st.integers(0, 7).flatmap(rows_of)


@settings(max_examples=200, deadline=None)
@given(den=st.integers(1, 12), rows=view_rows, k=st.integers(1, 6))
@example(den=6, rows=([0], [0, 0], [0, 0, 0]), k=3)
@example(den=4, rows=(), k=2)
@example(den=10, rows=([-5], [0, 15]), k=4)
def test_from_view_scaled_unscaled_and_from_values_agree(den, rows, k):
    values = TriangularMatrix([[Fraction(x, den) for x in row] for row in rows])
    plain = TriangularMatrix.from_view(den, rows)
    scaled = TriangularMatrix.from_view(k * den, [[k * x for x in row] for row in rows])
    coerced = TriangularMatrix(
        [[oracle.value_form(Fraction(x, den), k + n + m) for m, x in enumerate(row)] for n, row in enumerate(rows)]
    )
    view = values.int_view()
    for m in (plain, scaled, coerced):
        assert m == values and values == m
        assert m.int_view() == view
        assert hash(m) == hash(values)
        assert m.size == len(rows)
        assert m.rows == values.rows
        assert all(type(e) is Fraction for row in m.rows for e in row)
    assert plain == scaled
    if any(map(any, rows)):  # same numerators over another den: another matrix
        assert TriangularMatrix.from_view(den + 1, rows) != plain


def test_from_view_edge_cases():
    zero = TriangularMatrix.from_view(6, [[0], [0, 0]])
    assert zero.int_view() == (1, ((0,), (0, 0)))
    assert zero == TriangularMatrix([[0], [0, 0]])
    assert TriangularMatrix.from_view(5, []).int_view() == (1, ())
    neg = TriangularMatrix.from_view(4, [[-4], [2, -6]])
    assert neg.int_view() == (2, ((-2,), (1, -3)))
    assert neg.rows == ((-1,), (Fraction(1, 2), Fraction(-3, 2)))
    with pytest.raises(ValueError):
        TriangularMatrix.from_view(0, [[1]])
    with pytest.raises(ValueError):
        TriangularMatrix.from_view(-2, [[1]])
    with pytest.raises(SizeMismatch):
        TriangularMatrix.from_view(2, [[1], [1]])


def test_rows_share_one_fraction_per_numerator():
    m = TriangularMatrix.from_view(3, [[3], [1, 3], [3, 1, 3]])
    assert m.entry(1, 0) is m.entry(2, 1)
    assert m.entry(0, 0) is m.entry(2, 2) is ONE
    assert m.rows is m.rows
    assert m.truncate(2) == TriangularMatrix([[1], [Fraction(1, 3), 1]])
    assert m.truncate(1).int_view() == (1, ((1,),))


def test_truncate_to_a_negative_size_is_refused():
    m = all_ones(5)
    for size in (-1, -5):
        with pytest.raises(SizeMismatch):
            m.truncate(size)
    assert m.truncate(0).size == 0


def test_from_view_keeps_tuple_rows_and_names_the_first_bad_row():
    rows = pascal_rows(9)
    _, kept = TriangularMatrix.from_view(1, rows).int_view()
    assert all(map(is_, kept, rows))
    for bad, message in [
        ([(1,), (1, 1), (1, 1, 1, 1), (1,)], "row 2 must have 3 entries, got 4"),
        ([(1,), (1, 1), (1, 1, 1), (1, 1)], "row 3 must have 4 entries, got 2"),
        ([[1], [1, 1, 1], [1, 1]], "row 1 must have 2 entries, got 3"),
    ]:
        with pytest.raises(SizeMismatch, match=f"^{message}$"):
            TriangularMatrix.from_view(1, bad)
        with pytest.raises(SizeMismatch, match=f"^{message}$"):
            TriangularMatrix(bad)


def test_pascal_rows_are_the_binomials():
    assert pascal_rows(0) == []
    assert TriangularMatrix.from_view(1, pascal_rows(30)) == oracle.from_fn(30, comb)
