from fractions import Fraction

import pytest

import golden_matrices as gold
from genpascal.errors import ZeroEntry, ZeroPhi
from genpascal.matrices import (
    TriangularMatrix,
    all_ones,
    build_from_c,
    hadamard,
    identity_matrix,
    matmul,
)
from genpascal.sequences import CSequence
from genpascal.special import (
    PhiCoordinates,
    homomorphism_check,
    phi_coordinates,
    phi_q_matrix,
    phi_q_series,
    q_umbral_inverse,
    q_umbral_matrix,
    zero_overlay_matrix,
)
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


def test_series_values():
    c = phi_q_series(2, 2)
    assert c[5] == Fraction(1, 4)
    assert c[0] == 1
    with pytest.raises(ZeroPhi):
        phi_q_series(0, 3)


@pytest.mark.parametrize("phi", [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_series_matches_mask(phi, q):
    assert build_from_c(phi_q_series(phi, q), 32) == phi_q_matrix(phi, q, 32)


def test_coordinates_of_pascal():
    m = build_from_c(CSequence.exponential(), 8)
    coords = phi_coordinates(m, 6)
    assert coords.betas == {2: 2, 3: 3, 4: 2, 5: 5, 6: 1}
    assert coords.recompose(6) == m.truncate(6)


def test_recompose_without_moduli_is_all_ones():
    assert PhiCoordinates({}).recompose(3) == all_ones(3)


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
    from genpascal.fractal import fractal_matrix

    coords = phi_coordinates(fractal_matrix(2, 2, 10), 8)
    assert coords.betas[2] == coords.betas[4] == coords.betas[8] == 2
    assert all(coords.betas[q] == 1 for q in (3, 5, 6, 7))


def test_coordinates_reject_zero():
    from genpascal.fractal import fractal_matrix

    with pytest.raises(ZeroEntry):
        phi_coordinates(fractal_matrix(0, 2, 8), 6)


def test_random_roundtrip():
    import random

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
