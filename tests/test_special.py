import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_matrices as gold
from fraction_oracles import _mobius, fraction_q_umbral_inverse, fraction_q_umbral_matrix, geometric, phi_q_series
from fraction_oracles import recompose as oracle_recompose
from genpascal.errors import ZeroEntry
from genpascal.fractal import fractal_matrix
from genpascal.matrices import (
    TriangularMatrix,
    all_ones,
    build_from_c,
    hadamard,
    identity_matrix,
    matmul,
)
from genpascal.polynomials import mul_trunc
from genpascal.rationals import ONE, ZERO
from genpascal.sequences import BSequence, CSequence
from genpascal.special import (
    PhiCoordinates,
    homomorphism_check,
    phi_coordinates,
    phi_q_matrix,
    q_umbral_inverse,
    q_umbral_matrix,
    zero_overlay_matrix,
)
from genpascal.specs import GPSpec
from genpascal.verify import random_c_sequence


def test_mask_displays():
    phi = Fraction(7)
    assert phi_q_matrix(phi, 2, 9) == TriangularMatrix(gold.with_phi(gold.PHI_2_9, phi))
    assert phi_q_matrix(phi, 3, 9) == TriangularMatrix(gold.with_phi(gold.PHI_3_9, phi))


def test_mask_entries():
    phi = Fraction(5, 3)
    m2 = phi_q_matrix(phi, 2, 9)
    assert m2.entry(4, 3) == phi
    assert m2.entry(4, 2) == 1
    assert phi_q_matrix(phi, 3, 9).entry(3, 1) == phi
    assert phi_q_matrix(1, 4, 6) == all_ones(6)


@pytest.mark.parametrize("phi", [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_series_matches_mask(phi, q):
    assert build_from_c(phi_q_series(phi, q), 32) == phi_q_matrix(phi, q, 32)


def test_coordinates_of_pascal():
    m = build_from_c(CSequence.exponential(), 8)
    coords = phi_coordinates(m, 6)
    assert coords.betas == {2: 2, 3: 3, 4: 2, 5: 5, 6: 1}
    assert coords.recompose(6) == m.truncate(6)


def reduced_pairs(betas: dict[int, Fraction]) -> dict[int, tuple[int, int]]:
    return {q: (beta.numerator, beta.denominator) for q, beta in betas.items()}


def test_recompose_without_moduli_is_all_ones():
    assert PhiCoordinates({}).recompose(3) == all_ones(3)


def test_coordinates_hold_reduced_pairs_and_are_immutable():
    # the reduced pairs give back their Fractions, positionally or by keyword
    coords = PhiCoordinates({2: (-3, 2), 3: (5, 1), 4: (0, 1)})
    assert coords == PhiCoordinates(pairs={2: (-3, 2), 3: (5, 1), 4: (0, 1)})
    assert coords.betas == {2: Fraction(-3, 2), 3: 5, 4: 0}
    assert all(type(beta) is Fraction for beta in coords.betas.values())
    assert coords.recompose(9) == oracle_recompose(coords, 9)
    assert PhiCoordinates({2: (-1, 1), 3: (1, 1)}).is_involution() and not PhiCoordinates({2: (-1, 2)}).is_involution()
    with pytest.raises(AttributeError, match="^PhiCoordinates is immutable$"):
        coords.pairs = {}


weights = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)),
    st.builds(
        Fraction, st.integers(min_value=-(10**40), max_value=10**40), st.integers(min_value=1, max_value=10**40)
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(min_value=2, max_value=24), weights, max_size=6), st.integers(0, 16))
@example({}, 0)
@example({}, 5)
@example({3: Fraction(-2, 7), 7: Fraction(0), 16: Fraction(10**30, 3), 40: Fraction(5)}, 16)
def test_recompose_matches_the_streamed_mask_product(betas, size):
    masks = [GPSpec.phiq(beta, q) for q, beta in sorted(betas.items())]
    got = PhiCoordinates(reduced_pairs(betas)).recompose(size)
    assert got == GPSpec.hadamard(masks).materialize(size)
    assert all(type(e) is Fraction for row in got.rows for e in row)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(min_value=2, max_value=60), weights, max_size=8), st.integers(0, 40))
@example({}, 0)
@example({}, 1)
@example({2: Fraction(-1)}, 0)
@example({2: Fraction(-3, 2)}, 1)
@example({5: Fraction(0), 41: Fraction(-(10**40), 7)}, 40)
@example({q: Fraction(-q, q + 1) for q in range(2, 8)}, 12)
def test_recompose_mirrors_the_full_row_loop(betas, size):
    # the moduli reach past size, where only their denominators enter; every row reads the same backwards
    coords = PhiCoordinates(reduced_pairs(betas))
    got = coords.recompose(size)
    assert got == oracle_recompose(coords, size)
    for row in got.int_view()[1]:
        assert list(row) == list(row)[::-1]


def test_coordinates_displayed_factors():
    # through modulus 12: b4/b2, b6/(b2 b3), b8/b4, b9/b3, b10/(b2 b5), b12 b2/(b4 b6)
    m = build_from_c(CSequence.exponential(), 14)
    b = {n: Fraction(n) for n in range(1, 13)}
    coords = phi_coordinates(m, 12)
    assert coords.betas[4] == b[4] / b[2]
    assert coords.betas[6] == b[6] / (b[2] * b[3])
    assert coords.betas[8] == b[8] / b[4]
    assert coords.betas[9] == b[9] / b[3]
    assert coords.betas[10] == b[10] / (b[2] * b[5])
    assert coords.betas[12] == b[12] * b[2] / (b[4] * b[6])


def test_coordinates_of_mask_matrix():
    phi = Fraction(9, 4)
    coords = phi_coordinates(phi_q_matrix(phi, 3, 10), 9)
    assert coords.betas[3] == phi
    assert all(coords.betas[q] == 1 for q in coords.betas if q != 3)


def test_coordinates_of_fractal():
    coords = phi_coordinates(fractal_matrix(2, 2, 10), 8)
    assert coords.betas[2] == coords.betas[4] == coords.betas[8] == 2
    assert all(coords.betas[q] == 1 for q in (3, 5, 6, 7))


def test_coordinates_reject_zero():
    with pytest.raises(ZeroEntry):
        phi_coordinates(fractal_matrix(0, 2, 8), 6)


def first_column_b(a: TriangularMatrix) -> BSequence:
    """Column 1 read off as an explicit weight sequence, b_1 forced to 1 (the
    oracle's reading of the first column, entry by entry from ``rows``)."""
    values = [ZERO] + [a.entry(n, 1) for n in range(1, a.size)]
    if a.size > 1:
        values[1] = ONE
    return BSequence.explicit(values)


def mobius_coordinates(a: TriangularMatrix, max_q: int) -> dict[int, Fraction]:
    """The oracle for phi_coordinates: beta_q = prod_{d | q} b_d ** mu(q/d),
    in Fraction arithmetic over every divisor of every modulus."""
    b = first_column_b(a)
    for n in range(1, max_q + 1):
        if b[n] == 0:
            raise ZeroEntry(f"b_{n} = 0: zero generalized Pascal matrix has no coordinates")
    betas: dict[int, Fraction] = {}
    for q in range(2, max_q + 1):
        beta = ONE
        for d in range(1, q + 1):
            if q % d:
                continue
            mu = _mobius(q // d)
            if mu == 1:
                beta *= b[d]
            elif mu == -1:
                beta /= b[d]
        betas[q] = beta
    return betas


def test_first_column():
    assert [first_column_b(build_from_c(CSequence.exponential(), 8))[n] for n in range(1, 8)] == [
        1, 2, 3, 4, 5, 6, 7,
    ]
    b = first_column_b(fractal_matrix(2, 2, 9))
    assert [b[n] for n in range(1, 9)] == [1, 2, 1, 4, 1, 2, 1, 8]
    b = first_column_b(phi_q_matrix(7, 3, 10))
    assert [b[n] for n in range(1, 10)] == [1, 1, 7, 1, 1, 7, 1, 1, 7]


def assert_coordinates_match_the_oracle(matrix: TriangularMatrix) -> None:
    """Equal betas, or the same ZeroEntry, for every max_q below the size,
    on the matrix stored as its view and as its Fractions."""
    for stored in (TriangularMatrix.from_view(*matrix.int_view()), TriangularMatrix(matrix.rows)):
        for max_q in range(stored.size):
            try:
                want = mobius_coordinates(stored, max_q)
            except ZeroEntry as exc:
                with pytest.raises(ZeroEntry, match=f"^{re.escape(str(exc))}$"):
                    phi_coordinates(stored, max_q)
                continue
            coords = phi_coordinates(stored, max_q)
            assert coords.pairs == {q: (beta.numerator, beta.denominator) for q, beta in want.items()}
            got = coords.betas
            assert got == want and list(got) == list(want)
            assert all(type(beta) is Fraction for beta in got.values())


def coordinate_cases():
    rng = random.Random(4)
    for size in (0, 1, 2, 3, 13, 30):
        yield f"random-c-{size}", build_from_c(random_c_sequence(rng, size), size)
    yield "pascal", GPSpec("pascal").materialize(40)
    for q, phi in ((2, Fraction(3, 2)), (3, Fraction(-7, 3)), (5, Fraction(2)), (2, Fraction(0))):
        yield f"fractal-{q}-{phi}", fractal_matrix(phi, q, 33)
        yield f"phiq-{q}-{phi}", phi_q_matrix(phi, q, 33)
    rows = [list(row) for row in build_from_c(random_c_sequence(rng, 12), 12).rows]
    rows[1][1] = Fraction(-5, 3)  # b_1 is forced to 1, whatever the (1,1) entry holds
    yield "entry-1-1-not-one", TriangularMatrix(rows)
    rows[1][1] = Fraction(0)
    yield "entry-1-1-zero", TriangularMatrix(rows)


@pytest.mark.parametrize("name, matrix", [pytest.param(*case, id=case[0]) for case in coordinate_cases()])
def test_sieve_matches_the_moebius_oracle(name, matrix):
    assert_coordinates_match_the_oracle(matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 20), st.sets(st.integers(2, 19), max_size=3))
def test_zero_first_column_entries_name_the_smallest(seed, size, zeros):
    # a zero b_n at the chosen rows; for every max_q the sieve and the oracle
    # agree on the betas, or both name the smallest zero b_n with n <= max_q
    rows = [list(row) for row in build_from_c(random_c_sequence(random.Random(seed), size), size).rows]
    for n in zeros:
        if n < size:
            rows[n][1] = Fraction(0)
    assert_coordinates_match_the_oracle(TriangularMatrix(rows))


def test_random_roundtrip():
    rng = random.Random(99)
    for _ in range(20):
        m = build_from_c(random_c_sequence(rng, 12), 12)
        assert phi_coordinates(m, 11).recompose(12) == m


def test_homomorphism_same_modulus():
    a = phi_q_matrix(2, 2, 10)
    b = phi_q_matrix(3, 2, 10)
    assert phi_coordinates(hadamard(a, b), 9).betas[2] == 6
    assert homomorphism_check(a, b, 9).passed


def test_homomorphism_with_identity():
    m = build_from_c(CSequence.exponential(), 10)
    before = phi_coordinates(m, 9).betas
    assert phi_coordinates(hadamard(m, all_ones(10)), 9).betas == before
    assert homomorphism_check(m, all_ones(10), 9).passed


def test_involution_kernel():
    a = phi_q_matrix(-1, 2, 12)
    report = homomorphism_check(a, a, 11)
    assert report.passed
    assert phi_coordinates(a, 11).is_involution()
    for n in range(12):
        for m in range(n + 1):
            assert a.entry(n, m) in (1, -1)


def test_involution_kernel_failure_report():
    # the coordinates read only the first column, so a wrong entry elsewhere keeps them +-1
    rows = [list(row) for row in phi_q_matrix(-1, 2, 6).rows]
    rows[5][3] = 2
    report = homomorphism_check(TriangularMatrix(rows), all_ones(6), 5)
    assert not report.passed
    # got is the square of the entry 2
    ce = {"n": 5, "m": 3, "got": "4", "want": "1", "subsuite": "kernel-a"}
    assert report.counterexample == ce
    assert report.checked == 4 + 3 * 21


def test_umbral_displays():
    assert q_umbral_matrix(-1, 7) == TriangularMatrix(gold.UMBRAL_NEG1_7)
    assert q_umbral_inverse(-1, 7) == TriangularMatrix(gold.UMBRAL_NEG1_INV_7)


def test_umbral_special_parameters():
    assert q_umbral_matrix(1, 5) == build_from_c(CSequence.exponential(), 5)
    assert q_umbral_matrix(0, 6) == all_ones(6)
    assert q_umbral_matrix(Fraction(1, 2), 4).entry(2, 1) == Fraction(3, 2)  # 1 + q


@pytest.mark.parametrize("qv", [-1, 0, 1, 2, 3, Fraction(1, 2)])
def test_umbral_inverse_product(qv):
    size = 12
    assert matmul(q_umbral_matrix(qv, size), q_umbral_inverse(qv, size)) == identity_matrix(size)
    assert matmul(q_umbral_inverse(qv, size), q_umbral_matrix(qv, size)) == identity_matrix(size)


def test_umbral_closed_form():
    # entry (2n+i, 2m+j) = C(n, m) for i >= j, else 0
    from math import comb

    m = q_umbral_matrix(-1, 32)
    for row in range(32):
        for col in range(row + 1):
            n, i = divmod(row, 2)
            mm, j = divmod(col, 2)
            expected = comb(n, mm) if i >= j else 0
            assert m.entry(row, col) == expected


@pytest.mark.parametrize("qv", [-1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
def test_umbral_matches_series_products(qv):
    # column n as the full truncated product of the geometric series 1/(1 - q**m x), m <= n
    qv = Fraction(qv)
    size = 20
    rows = [[] for _ in range(size)]
    series = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for col in range(size):
        series = mul_trunc(series, geometric(qv**col, size - 1), size - 1)
        for row in range(col, size):
            rows[row].append(series[row - col])
    oracle = TriangularMatrix(rows)
    for n in (0, 1, 2, size):
        assert q_umbral_matrix(qv, n) == oracle.truncate(n)
    spec = GPSpec.qumbral(qv)
    assert all(spec.entry(n, m) == oracle.entry(n, m) for n in range(size) for m in range(n + 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_zero_overlay_matches_masked_series_matrix(q):
    sizes = [0, 1, q, q * q + 1, q**3 + 2]
    coeffs = [Fraction(1, factorial(n // q)) for n in range(sizes[-1])]
    oracle = hadamard(phi_q_matrix(0, q, sizes[-1]), build_from_c(CSequence.explicit(coeffs), sizes[-1]))
    for size in sizes:
        assert zero_overlay_matrix(q, size) == oracle.truncate(size)


def test_zero_overlay_huge_q_costs_only_size():
    q, size = 10**6, 5
    coeffs = [Fraction(1, factorial(n // q)) for n in range(size)]
    oracle = hadamard(phi_q_matrix(0, q, size), build_from_c(CSequence.explicit(coeffs), size))
    assert zero_overlay_matrix(q, size) == oracle


def test_zero_overlay():
    assert zero_overlay_matrix(2, 7) == q_umbral_matrix(-1, 7)
    assert zero_overlay_matrix(3, 5).entry(0, 0) == 1
    assert zero_overlay_matrix(2, 7).entry(5, 2) == 2


def test_overlay_unmasked_branch():
    # below a block boundary the unmasked matrix carries n*C(n-1, m)
    from math import comb, factorial

    q, size = 3, 18
    coeffs = [Fraction(1, factorial(n // q)) for n in range(size)]
    base = build_from_c(CSequence.explicit(coeffs), size)
    for row in range(size):
        for col in range(row + 1):
            n, i = divmod(row, q)
            mm, j = divmod(col, q)
            if i >= j:
                assert base.entry(row, col) == comb(n, mm)
            else:
                assert base.entry(row, col) == n * comb(n - 1, mm)


@pytest.mark.parametrize("qv", [-1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
def test_integer_umbral_builders_match_the_fraction_loops(qv):
    pairs = ((q_umbral_matrix, fraction_q_umbral_matrix), (q_umbral_inverse, fraction_q_umbral_inverse))
    for size in range(25):
        for build, oracle in pairs:
            got, want = build(qv, size), oracle(qv, size)
            assert got.rows == want.rows
            assert got.int_view() == want.int_view()
            assert all(type(e) is Fraction for row in got.rows for e in row)
