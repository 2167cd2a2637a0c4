"""Named verification suites, each returning a Report.

Suites are deterministic: randomized ones draw from a seeded generator so a
run is reproducible. ``--size`` scales the truncation (and for the digit
suites the index range).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import fractal, special, zeroalg
from .matrices import TriangularMatrix, build_from_c, identity_check, identity_matrix, matmul
from .rationals import ONE
from .report import Report, merge_reports
from .sequences import CSequence
from .specs import GPSpec


def golden_family(size: int) -> list[tuple[str, TriangularMatrix]]:
    """The matrix families exercised by the identity suite."""
    specs = [
        ("pascal", GPSpec("pascal")),
        ("ones", GPSpec("ones")),
        ("phiq(7,2)", GPSpec.phiq(7, 2)),
        ("phiq(7,3)", GPSpec.phiq(7, 3)),
        ("phiq(0,2)", GPSpec.phiq(0, 2)),
        ("fractal(2,2)", GPSpec.fractal(2, 2)),
        ("fractal(3,3)", GPSpec.fractal(3, 3)),
        ("fractal(1/2,2)", GPSpec.fractal(Fraction(1, 2), 2)),
        ("fractal(0,2)", GPSpec.fractal(0, 2)),
        ("qumbral(-1)", GPSpec.qumbral(-1)),
        ("tmatrix(3)", GPSpec.tmatrix(3)),
        ("zero-overlay(2)", GPSpec("zero-overlay", q=2)),
    ]
    return [(name, spec.materialize(size)) for name, spec in specs]


def suite_identities(size: int) -> Report:
    reports = []
    for name, matrix in golden_family(size):
        sub = identity_check(matrix, suite=f"identities[{name}]")
        reports.append(sub)
    return merge_reports("identities", reports)


def lucas_check(limit: int) -> Report:
    """Digit dominance against the parity of ordinary binomials."""
    checked = 0
    for n in range(limit):
        for m in range(n + 1):
            checked += 1
            if zeroalg.digit_binom(2, n, m) != comb(n, m) % 2:
                return Report("lucas", False, {"n": n, "m": m}, checked)
    return Report("lucas", True, None, checked)


def suite_lucas(size: int) -> Report:
    reports = [lucas_check(size)]
    for q in (2, 3):
        reports.append(zeroalg.t_threeway_check(q, size))
    return merge_reports("lucas", reports)


def suite_primes(size: int) -> Report:
    return fractal.pascal_prime_factorization(size)


def suite_kron(size: int) -> Report:
    reports = []
    for q in (2, 3):
        k = 1
        while q ** (k + 1) <= size:
            reports.append(zeroalg.sierpinski_selfsim_check(q, k))
            k += 1
    if not reports:
        return Report("kron", True, None, 0)
    return merge_reports("kron", reports)


def recurrence_check(q: int, size: int) -> Report:
    """Rows and columns from the recurrences against the materialized matrix."""
    matrix = fractal.fractal_matrix(q, q, size)
    checked = 0
    for n in range(size):
        checked += 2
        if fractal.fractal_row(q, n) != matrix.row_poly(n):
            return Report("recurrences", False, {"q": q, "row": n}, checked)
        if fractal.fractal_column(q, n, size) != matrix.column_poly(n):
            return Report("recurrences", False, {"q": q, "column": n}, checked)
    return Report("recurrences", True, None, checked)


def suite_recurrences(size: int) -> Report:
    return merge_reports("recurrences", [recurrence_check(q, size) for q in (2, 3, 5)])


def suite_umbral(size: int) -> Report:
    reports = []
    ident = identity_matrix(size)
    for qv in (-1, 0, 1, 2, 3):
        product = matmul(special.q_umbral_matrix(qv, size), special.q_umbral_inverse(qv, size))
        ok = product == ident
        reports.append(
            Report("umbral", ok, None if ok else {"q": qv}, size * (size + 1) // 2)
        )
    # the q = -1 member coincides with the modulus-2 overlay
    ok = special.q_umbral_matrix(-1, size) == special.zero_overlay_matrix(2, size)
    reports.append(Report("umbral-overlay", ok, None if ok else {"q": -1}, size * (size + 1) // 2))
    return merge_reports("umbral", reports)


def _random_fractal_series(rng: random.Random, q: int, degree: int) -> list[Fraction]:
    base = [ONE] + [
        Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 6)) for _ in range(q - 1)
    ]
    out = []
    for n in range(degree + 1):
        value = ONE
        t = n
        while t:
            value *= base[t % q]
            t //= q
        out.append(value)
    return out


def convolution_check(q: int, size: int, trials: int = 5, seed: int = 20240801) -> Report:
    """Masked-matrix product against the carryless digit product."""
    rng = random.Random(seed)
    reports = []
    cases = [([ONE] * size, [ONE] * size)]
    for _ in range(trials):
        cases.append(
            (_random_fractal_series(rng, q, size - 1), _random_fractal_series(rng, q, size - 1))
        )
    for a, b in cases:
        product = matmul(zeroalg.masked_matrix(a, q, size), zeroalg.masked_matrix(b, q, size))
        convolved = zeroalg.carryless_convolve(a, b, q, size - 1)
        direct = zeroalg.masked_matrix(convolved, q, size)
        ok = product == direct
        reports.append(Report("convolution", ok, None if ok else {"q": q}, size * (size + 1) // 2))
        general = zeroalg.masked_convolve(a, b, q, size - 1)
        ok2 = general == convolved
        reports.append(Report("convolution-direct", ok2, None if ok2 else {"q": q}, size))
    return merge_reports("convolution", reports)


def suite_convolution(size: int) -> Report:
    return merge_reports("convolution", [convolution_check(q, size) for q in (2, 3)])


def random_c_sequence(rng: random.Random, size: int) -> CSequence:
    values = [ONE, ONE] + [
        Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
        for _ in range(size - 2)
    ]
    return CSequence.explicit(values)


def decompose_roundtrip_check(size: int, trials: int, seed: int = 20240802) -> Report:
    """Coordinates of random nonzero matrices recompose to the exact block."""
    rng = random.Random(seed)
    reports = []
    matrices = [build_from_c(CSequence.exponential(), size)]
    for _ in range(trials):
        matrices.append(build_from_c(random_c_sequence(rng, size), size))
    for matrix in matrices:
        coords = special.phi_coordinates(matrix, size - 1)
        ok = coords.recompose(size) == matrix
        reports.append(
            Report("decompose-roundtrip", ok, None if ok else {"size": size}, size * (size + 1) // 2)
        )
    return merge_reports("decompose-roundtrip", reports)


def suite_decompose_roundtrip(size: int) -> Report:
    return decompose_roundtrip_check(size, trials=20)


SUITES = {
    "identities": suite_identities,
    "lucas": suite_lucas,
    "primes": suite_primes,
    "primes-check": suite_primes,  # historical alias
    "kron": suite_kron,
    "recurrences": suite_recurrences,
    "umbral": suite_umbral,
    "convolution": suite_convolution,
    "decompose-roundtrip": suite_decompose_roundtrip,
}


def run_suite(name: str, size: int) -> Report:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(size)
