"""The integer-view builders against the Fraction code they replaced.

Each builder and series function is compared with its Fraction oracle in
``fraction_oracles``: equal matrices, equal integer views and hashes, equal
Fraction rows with every entry an exact Fraction, and the same error text.
The per-entry kernels and the ``from-c`` and ``hadamard`` per-entry forms,
which compute on ints and build one Fraction, are compared with their
Fraction oracles the same way, on the value and on its type. The Hadamard
entry of the prime fractal matrices is C(n, m) at every n < 128, and each of
its fractal factors costs one carry count when the square of its base is at
most n, none below.
The readers' split of wire fractions is checked against parse_rational.
A series' view over one common denominator gives the values and the wire
text of the per-coefficient (nums, dens) form it replaced.
The base-2 forms of ``carry_count``, ``digit_binom`` and ``t_coefficient`` are
compared with the digit loops they replaced there, ``carry_count``'s digit-sum
form with its digit loop at every base inside the triangle, and ``gbinom`` and the ``from-c`` entry,
which take an exact quotient when there is one, with ``Fraction(top, bottom)``.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from genpascal import specs
from genpascal.errors import NotFractal, ZeroEntry
from genpascal.fractal import carry_count, fast_gbinom_fractal, fractal_entry
from genpascal.matrices import TriangularMatrix, build_from_c, gbinom, hadamard_inverse
from genpascal.rationals import format_rows, parse_rational, to_view
from genpascal.sequences import BSequence, CSequence
from genpascal.serialize import matrix_from_csv
from genpascal.specs import GPSpec
from genpascal.zeroalg import (
    _extend,
    carryless_convolve,
    check_fractal,
    digit_binom,
    fractal_series,
    masked_matrix,
    t_coefficient,
)
from test_specs import SPECS

SETTINGS = settings(max_examples=60, deadline=None)

nonzero = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=9)
)
rational = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12))
# ints and Fractions mixed, as the series functions accept them
coefficient = st.one_of(st.integers(min_value=-5, max_value=5), rational)


def assert_same_matrix(got: TriangularMatrix, want: TriangularMatrix) -> None:
    assert got == want
    assert got.int_view() == want.int_view()
    assert hash(got) == hash(want)
    assert got.rows == want.rows
    assert all(type(e) is Fraction for row in got.rows for e in row)


def assert_same_series(got: list, want: list) -> None:
    assert got == want
    assert all(type(x) is Fraction for x in got)


def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (NotFractal, ZeroDivisionError, ZeroEntry) as exc:
        return type(exc), str(exc)


def raised(fn, *args):
    """The type and text of the error fn(*args) raises, or None."""
    got = outcome(fn, *args)
    return got if isinstance(got, tuple) and isinstance(got[0], type) else None


def c_sequence(values: list) -> CSequence:
    return CSequence("listed", values.__getitem__)


@SETTINGS
@given(st.lists(nonzero, max_size=14))
@example([])
@example([Fraction(-3, 7)])
def test_build_from_c_matches_the_oracle_on_signed_sequences(values):
    c = c_sequence(values)
    for size in range(len(values) + 1):
        assert_same_matrix(build_from_c(c, size), oracle.build_from_c(c, size))


@SETTINGS
@given(st.lists(nonzero, min_size=1, max_size=8), st.data())
def test_build_from_c_zero_coefficient_raises_like_the_oracle(values, data):
    values.insert(data.draw(st.integers(min_value=0, max_value=len(values))), Fraction(0))
    c = c_sequence(values)
    for size in range(len(values) + 1):
        try:
            want = oracle.build_from_c(c, size)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                build_from_c(c, size)
        else:
            assert_same_matrix(build_from_c(c, size), want)


@SETTINGS
@given(st.lists(nonzero, max_size=12), st.data())
def test_hadamard_inverse_matches_the_oracle(values, data):
    matrix = build_from_c(c_sequence(values), len(values))
    if values and data.draw(st.booleans()):  # a zero entry makes both refuse
        n = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        m = data.draw(st.integers(min_value=0, max_value=n))
        den, ints = matrix.int_view()
        rows = [list(row) for row in ints]
        rows[n][m] = 0
        matrix = TriangularMatrix.from_view(den, rows)
    want = outcome(oracle.hadamard_inverse, matrix)
    got = outcome(hadamard_inverse, matrix)
    if isinstance(want, TriangularMatrix):
        assert_same_matrix(got, want)
    else:
        assert got == want


@SETTINGS
@given(st.lists(coefficient, max_size=20), st.sampled_from([2, 3, 4]))
@example([], 2)
@example([Fraction(1, 2)], 3)
def test_masked_matrix_matches_the_oracle(series, q):
    for size in range(len(series) + 1):
        assert_same_matrix(masked_matrix(series, q, size), oracle.masked_matrix(series, q, size))


@SETTINGS
@given(SPECS["hadamard"], st.integers(min_value=0, max_value=12))
@example(GPSpec.hadamard([]), 0)
@example(GPSpec.hadamard([]), 5)
def test_hadamard_family_matches_the_streamed_oracle(spec, size):
    assert_same_matrix(spec.materialize(size), oracle.materialize_hadamard(spec, size))


def assert_same_entry(got, want) -> None:
    assert got == want
    assert type(got) is Fraction


def dominated(q: int, n: int, m: int) -> int:
    """The index whose base-q digits are the digitwise minimum of n and m, so
    that n dominates it and its digit binomials are all nonzero."""
    out, power = 0, 1
    while n and m:
        (n, x), (m, y) = divmod(n, q), divmod(m, q)
        out += min(x, y) * power
        power *= q
    return out


weights = st.sampled_from([0, 1, 2, -1, Fraction(-3, 2), Fraction(7, 3), oracle.FractionSubclass(5, 4)])
index = st.integers(min_value=0, max_value=10**12)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=7), index, index, weights)
@example(2, 0, 0, 0)
@example(3, 10**12, 10**12, Fraction(-3, 2))
def test_entry_kernels_match_their_oracles(q, n, m, phi):
    # m is drawn apart from n, so about half of the pairs lie outside the triangle
    for n, m in [(n, m), (n, dominated(q, n, m)), (n, -m - 1)]:
        assert_same_entry(fractal_entry(phi, q, n, m), oracle.fractal_entry(phi, q, n, m))
        assert_same_entry(t_coefficient(q, n, m), oracle.t_coefficient(q, n, m))


small = st.integers(min_value=0, max_value=11)


@SETTINGS
@given(st.lists(nonzero, min_size=1, max_size=12), small, small)
@example([Fraction(-3, 7)], 1, 0)  # a negative c_n: the sign moves off the denominator
def test_from_c_entry_matches_the_oracle(values, n, m):
    spec = GPSpec.from_c(c_sequence([Fraction(1), *values]))
    n = n % (len(values) + 1)
    m = m % (n + 1)
    assert_same_entry(spec.entry(n, m), oracle.from_c_entry(spec, n, m))


def test_from_c_entry_of_a_zero_c_n_raises_like_the_oracle():
    spec = GPSpec.from_c(c_sequence([Fraction(1), Fraction(1), Fraction(0)]))
    for form in (spec.entry, lambda n, m: oracle.from_c_entry(spec, n, m)):
        with pytest.raises(ZeroDivisionError):
            form(2, 1)


@SETTINGS
@given(SPECS["hadamard"], small, small)
@example(GPSpec.hadamard([]), 5, 2)
@example(GPSpec.hadamard([GPSpec.fractal(0, 2), GPSpec.phiq(Fraction(-3, 2), 3)]), 5, 2)  # a zero factor
@example(GPSpec.hadamard([GPSpec.fractal(Fraction(-2, 3), 2), GPSpec.fractal(-5, 3)]), 5, 2)  # negative weights
# a fractal factor of base p at n = p - 1 (skipped: no modulus to borrow at), n = p and n = p + 1
@example(GPSpec.hadamard([GPSpec.fractal(Fraction(-3, 2), 7), GPSpec.fractal(5, 5)]), 6, 4)
@example(GPSpec.hadamard([GPSpec.fractal(Fraction(-3, 2), 7), GPSpec.fractal(5, 5)]), 7, 4)
@example(GPSpec.hadamard([GPSpec.fractal(Fraction(-3, 2), 7), GPSpec.fractal(5, 5)]), 8, 4)
@example(GPSpec.hadamard([GPSpec.fractal(0, 11), GPSpec.phiq(Fraction(5, 3), 2)]), 5, 2)  # phi = 0 above n: 0**0
@example(
    GPSpec.hadamard(
        [
            GPSpec.fractal(Fraction(-3, 2), 2),
            GPSpec.tmatrix(3),
            GPSpec.fractal(-5, 3),
            GPSpec.qumbral(-2),
            GPSpec.phiq(Fraction(-7, 4), 3),
        ]
    ),
    11,
    5,
)  # negative weights mixed with factors of other kinds
def test_hadamard_entry_matches_the_oracle(spec, n, m):
    # the family's per-entry form, and so its oracle, is reached only inside the triangle
    m = m % (n + 1)
    assert_same_entry(spec.entry(n, m), oracle.hadamard_entry(spec, n, m))


PRIMES_BELOW_128 = [p for p in range(2, 128) if all(p % d for d in range(2, p))]


def test_prime_fractal_hadamard_entry_is_pascal_below_128():
    # the paper's statement, C(n, m) = prod_p p**(borrows of n - m in base p), at every entry
    spec = GPSpec.hadamard([GPSpec.fractal(p, p) for p in PRIMES_BELOW_128])
    for n in range(128):
        for m in range(n + 1):
            got = spec.entry(n, m)
            assert got == comb(n, m)
            assert_same_entry(got, oracle.hadamard_entry(spec, n, m))


@pytest.mark.parametrize("n", [0, 1, 2, 4, 9, 12, 120, 121, 127])
def test_hadamard_entry_multiplies_fractal_factors_as_int_powers(monkeypatch, n):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name, args[0]] += 1
            return fn(*args)

        monkeypatch.setattr(specs, name, wrapper)

    counted("carry_count", specs.carry_count)
    counted("fractal_entry", specs.fractal_entry)
    factors = [GPSpec.fractal(p, p) for p in PRIMES_BELOW_128] + [GPSpec.fractal(0, 200), GPSpec("ones")]
    assert GPSpec.hadamard(factors).entry(n, n // 2) == comb(n, n // 2)
    # one carry count per fractal factor whose base q has q * q <= n, none for q <= n < q * q (the one
    # modulus q is a comparison) or q > n, and no fractal_entry
    assert calls == Counter({("carry_count", p): 1 for p in PRIMES_BELOW_128 if p * p <= n})


@SETTINGS
@given(
    st.sampled_from([2, 3, 4]),
    st.lists(coefficient, min_size=3, max_size=3),
    st.integers(min_value=0, max_value=40),
)
@example(2, [1, 1, 1], 0)
@example(3, [1, Fraction(1, 2), 1], 1)
def test_fractal_series_matches_the_oracle(q, tail, degree):
    base = [1, *tail[: q - 1]]
    assert_same_series(fractal_series(base, q, degree), oracle.fractal_series(base, q, degree))


# zero and negative entries, and denominators up to 10**12 so that den**L is large
block_entry = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.integers(min_value=1, max_value=10**12)),
)


@SETTINGS
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=3), st.data())
def test_extend_matches_the_per_coefficient_form(q, k, data):
    # each degree pair around q**k adds a base-q digit, so the view's den**L gains a factor
    degree = data.draw(st.sampled_from([-1, 0, q - 1, q, q**k - 1, q**k]))
    block = data.draw(st.lists(block_entry, min_size=q, max_size=q))
    den, x = to_view(block[: min(q, degree + 1)])
    kept = list(x)
    view_den, ints = _extend(den, x, q, degree)
    nums, dens = oracle._extend(den, list(x), q, degree)
    assert x == kept and len(ints) == degree + 1
    assert [Fraction(v, view_den) for v in ints] == list(map(Fraction, nums, dens))
    assert ",".join(*format_rows(view_den, [ints])) == oracle.format_series(nums, dens)


def fractal_inputs(q, tail, degree):
    """A fractal series through ``degree`` from a mixed-denominator base block."""
    return oracle.fractal_series([1, *tail[: q - 1]], q, degree)


@SETTINGS
@given(
    st.sampled_from([2, 3, 4]),
    st.lists(coefficient, min_size=3, max_size=3),
    st.lists(coefficient, min_size=3, max_size=3),
    st.integers(min_value=0, max_value=30),
    st.data(),
)
def test_carryless_convolve_and_check_fractal_match_the_oracles(q, ta, tb, degree, data):
    a, b = fractal_inputs(q, ta, degree), fractal_inputs(q, tb, degree)
    if data.draw(st.booleans()):  # a non-fractal series: both name the same degree
        at = data.draw(st.integers(min_value=0, max_value=degree))
        a[at] += data.draw(st.sampled_from([1, Fraction(-1, 3)]))
    if data.draw(st.booleans()):  # a short series reads as zeros past its end
        b = b[: data.draw(st.integers(min_value=0, max_value=degree + 1))]
    for series in (a, b):
        assert raised(check_fractal, series, q, degree) == raised(oracle.check_fractal, series, q, degree)
    got = outcome(carryless_convolve, a, b, q, degree)
    want = outcome(oracle.carryless_convolve, a, b, q, degree)
    if isinstance(want, list):
        assert_same_series(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("degree", [0, 1])
def test_series_functions_at_degrees_zero_and_one(degree):
    a, b = [1, Fraction(-2, 3)], [Fraction(1), Fraction(5, 4)]
    for q in (2, 3):
        assert_same_series(carryless_convolve(a, b, q, degree), oracle.carryless_convolve(a, b, q, degree))
        assert_same_series(fractal_series(a, q, degree), oracle.fractal_series(a, q, degree))
    with pytest.raises(NotFractal, match="a_0 must be 1"):
        check_fractal([Fraction(1, 2)], 2, degree)


def test_reader_reduces_unreduced_wire_fractions():
    m = matrix_from_csv("3/6\n-4/8,10/5\n0/7,6/4,-0/3\n")
    assert m.int_view() == (2, ((1,), (-1, 4), (0, 3, 0)))
    assert m.rows == ((Fraction(1, 2),), (Fraction(-1, 2), 2), (0, Fraction(3, 2), 0))


@pytest.mark.parametrize("entry", ["1/0", "-7/00", "3/-2", "--3/2", "1/" + "3" * 4400, "3" * 4400 + "/7"])
def test_reader_leaves_other_fraction_forms_to_parse_rational(entry):
    with pytest.raises(ValueError) as want:
        parse_rational(entry)
    with pytest.raises(ValueError) as got:
        matrix_from_csv(f"{entry}\n")
    assert str(got.value) == str(want.value)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
@example(0, 0)
@example(2**100 + 12345, 0)  # m = 0
@example(3**150, 3**150)  # m = n
@example(2**256 - 1, 2**255 + 7)  # n = 2**k - 1: every m is dominated, no borrows
@example(2**256, 1)  # n = 2**k: m = 1 borrows at every one of the 256 bits
@example(2**64, 2**64 - 1)
def test_base_2_forms_match_the_digit_loops(n, m):
    for n, m in [(n, m % (n + 1)), (n, 0), (n, n)]:
        got = carry_count(2, n, m), digit_binom(2, n, m)
        assert got == (oracle.carry_count(2, n, m), oracle.digit_binom(2, n, m))
        assert list(map(type, got)) == [int, int]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**256), st.integers(min_value=0, max_value=2**256))
@example(2**100 + 12345, 0)  # m = 0
@example(3**150, 3**150)  # m = n
@example(2**256 - 1, 2**255 + 7)  # n = 2**k - 1 dominates every m below it
@example(2**256, 2**256 - 1)  # n = 2**k dominates only 0 and itself
@example(2**256, 2**256)
def test_base_2_t_coefficient_matches_the_digit_walk(n, m):
    # the bit mask against the product of digit binomials, inside and outside the triangle
    for n, m in [(n, m), (n, m % (n + 1)), (n, dominated(2, n, m)), (n, 0), (n, n), (n, -m - 1)]:
        assert_same_entry(t_coefficient(2, n, m), oracle.t_coefficient(2, n, m))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(min_value=2, max_value=70), st.sampled_from([10**20, 2**64 + 1, 3**40])),
    st.integers(min_value=0, max_value=2**256),
    st.integers(min_value=0, max_value=2**256),
)
# chunk edges n = Q**j - 1 and Q**j, Q = q**k the largest power <= 4096
@example(3, 3**7 - 1, 0)
@example(3, 3**7, 0)
@example(3, 3**70 - 1, 0)
@example(3, 3**70, 0)
@example(5, 5**5 - 1, 0)
@example(5, 5**10, 0)
@example(16, 16**3 - 1, 0)
@example(16, 16**3, 0)
@example(16, 16**60, 0)
@example(17, 17**40, 0)  # the first base that walks its digits
@example(10**20, 10**100, 0)
@example(3, 3**150, 3**149 + 1)
@example(2, 2**256, 1)
def test_carry_count_inside_the_triangle_is_the_digit_walk(q, n, m):
    # the digit-sum form against the digit loop, and the entries it gives, at m, 0, 1 and n
    for m in (m % (n + 1), 0, min(1, n), n):
        k = oracle.carry_count(q, n, m)
        assert carry_count(q, n, m) == k
        assert type(carry_count(q, n, m)) is int
        assert fast_gbinom_fractal(q, n, m) == q**k
        for phi in (0, 2, Fraction(-3, 2)):
            assert fractal_entry(phi, q, n, m) == Fraction(phi) ** k


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**80),
    st.integers(min_value=0, max_value=2**80),
)
@example(2, 5, 0)
@example(2, 2**70, 2**70)
def test_carry_count_outside_the_triangle_is_the_digit_loop(q, n, m):
    # m > n, m < 0, and n < 0 (where the loop never starts), at every base
    for n, m in [(n, n + 1 + m), (n, -1 - m), (-1 - n, m), (-1 - n, -1 - m)]:
        assert carry_count(q, n, m) == oracle.carry_count(q, n, m)


# rationals with a larger range than ``nonzero``, so that most quotients are not integers
wide = st.builds(
    Fraction, st.integers(min_value=-99, max_value=99).filter(bool), st.integers(min_value=1, max_value=99)
)
b_sequences = st.one_of(
    st.sampled_from([BSequence.naturals(), BSequence.fractal(2, 2), BSequence.fractal(3, 3)]),
    st.lists(wide, min_size=60, max_size=60).map(lambda vs: BSequence.explicit([0, *vs])),
)
c_sequences = st.one_of(
    st.sampled_from([CSequence.from_b(BSequence.naturals()), CSequence.fractal(2), CSequence.fractal(3)]),
    st.lists(wide, min_size=59, max_size=59).map(lambda vs: CSequence.explicit([1, 1, *vs])),
)
index60 = st.integers(min_value=0, max_value=60)


@SETTINGS
@given(b_sequences, index60, index60)
@example(BSequence.naturals(), 60, 30)
@example(BSequence.explicit([0, 1, 2, Fraction(1, 2)]), 3, 1)  # b_3! / (b_1! b_2!) = 1/2
def test_gbinom_is_the_factorial_quotient(b, n, m):
    n, m = max(n, m), min(n, m)
    (top, bottom), (num_m, den_m), (num_k, den_k) = map(b.factorial_pair, (n, m, n - m))
    assert_same_entry(gbinom(b, n, m), Fraction(top * den_m * den_k, bottom * num_m * num_k))


@SETTINGS
@given(c_sequences, index60, index60)
@example(CSequence.explicit([1, 1, Fraction(2, 3)]), 2, 1)  # c_1 c_1 / c_2 = 3/2
def test_from_c_entry_is_the_quotient(c, n, m):
    n, m = max(n, m), min(n, m)
    x, y, z = c[m], c[n - m], c[n]
    want = Fraction(x.numerator * y.numerator * z.denominator, x.denominator * y.denominator * z.numerator)
    assert_same_entry(GPSpec.from_c(c).entry(n, m), want)
