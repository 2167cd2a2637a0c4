"""Named verification suites: ``SUITES`` is the one table of them.

Each row maps a size to the suite's list of sub-reports, and ``run_suite``
merges that list into one Report named after the suite, so a failing suite's
counterexample names its sub-suite. Suites are deterministic: randomized ones
draw from a seeded generator so a run is reproducible. The size scales the
truncation (and for the digit suites the index range); a negative size is
refused.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from operator import ge
from typing import Callable

from . import fractal, special, zeroalg
from .digits import digit_product_rows
from .matrices import TriangularMatrix, build_from_c, identity_check, identity_matrix, matmul
from .rationals import ONE
from .report import Report, check_equal, merge_reports
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


def lucas_check(limit: int) -> Report:
    """Digit dominance against the parity of ordinary binomials."""
    parity = TriangularMatrix.from_view(1, [[comb(n, m) % 2 for m in range(n + 1)] for n in range(limit)])
    return check_equal("lucas", zeroalg.sierpinski_matrix(2, limit), parity)


def recurrence_check(q: int, size: int) -> Report:
    """Rows and columns from the recurrences against the materialized matrix.

    Each row and column is built once over a shared table, through the
    module's bindings, so a wrapper put on them sees every one of them."""
    matrix = fractal.fractal_matrix(q, q, size)
    rows, columns = {}, {}
    for n in range(size):
        rows[n] = fractal.fractal_row(q, n, rows)
        columns[n, size] = fractal.fractal_column(q, n, size, columns)
    got_rows = [rows[n] for n in range(size)]
    got_columns = [columns[n, size] for n in range(size)]
    return merge_reports("recurrences", [
        check_equal("recurrence-rows", got_rows, [matrix.row_poly(n) for n in range(size)], q=q),
        check_equal("recurrence-columns", got_columns, [matrix.column_poly(n) for n in range(size)], q=q),
    ])


def _random_fractal_series(rng: random.Random, q: int, degree: int) -> list[Fraction]:
    numerators = [x for x in range(-6, 7) if x]
    base = [ONE] + [Fraction(rng.choice(numerators), rng.randint(1, 6)) for _ in range(q - 1)]
    return zeroalg.fractal_series(base, q, degree)


def convolution_check(q: int, size: int) -> Report:
    """Masked-matrix product against the carryless digit product.

    The dominance pattern and each case's two views (``check_fractal``) are built
    once; every masked matrix and product is read off them and the product's view."""
    rng = random.Random(20240801)
    reports = []
    cases = [([ONE] * size, [ONE] * size)]
    for _ in range(5):
        cases.append(
            (_random_fractal_series(rng, q, size - 1), _random_fractal_series(rng, q, size - 1))
        )
    pattern = digit_product_rows(q, size, ge)
    for a, b in cases:
        va, vb = zeroalg.check_fractal(a, q, size - 1), zeroalg.check_fractal(b, q, size - 1)
        product = matmul(zeroalg._masked_view(pattern, va), zeroalg._masked_view(pattern, vb))
        convolved = zeroalg.carryless_view(va, vb, q, size - 1)
        reports.append(check_equal("convolution", product, zeroalg._masked_view(pattern, convolved), q=q))
        general = zeroalg._fractions(zeroalg._convolve_views(pattern, va, vb))
        reports.append(check_equal("convolution-direct", general, zeroalg._fractions(convolved), q=q))
    return merge_reports("convolution", reports)


def random_c_sequence(rng: random.Random, size: int) -> CSequence:
    numerators = [x for x in range(-9, 10) if x]
    values = [ONE, ONE] + [Fraction(rng.choice(numerators), rng.randint(1, 9)) for _ in range(size - 2)]
    return CSequence.explicit(values)


def decompose_roundtrip_check(size: int) -> Report:
    """Coordinates of random nonzero matrices recompose to the exact block."""
    rng = random.Random(20240802)
    reports = []
    matrices = [build_from_c(CSequence.exponential(), size)]
    for _ in range(20):
        matrices.append(build_from_c(random_c_sequence(rng, size), size))
    for matrix in matrices:
        coords = special.phi_coordinates(matrix, size - 1)
        reports.append(check_equal("decompose-roundtrip", coords.recompose(size), matrix, size=size))
    return merge_reports("decompose-roundtrip", reports)


def _umbral_reports(size: int) -> list[Report]:
    """Each q-umbral matrix times its inverse is the identity."""
    reports = []
    ident = identity_matrix(size)
    for qv in (-1, 0, 1, 2, 3):
        product = matmul(special.q_umbral_matrix(qv, size), special.q_umbral_inverse(qv, size))
        reports.append(check_equal("umbral", product, ident, q=qv))
    # the q = -1 member coincides with the modulus-2 overlay
    overlay = special.zero_overlay_matrix(2, size)
    reports.append(check_equal("umbral-overlay", special.q_umbral_matrix(-1, size), overlay, q=-1))
    return reports


# suite -> its sub-reports at a size; names are looked up on each call, so a
# wrapper put on a module's function sees the suite
SUITES: dict[str, Callable[[int], list[Report]]] = {
    "identities": lambda size: [
        identity_check(matrix, suite=f"identities[{name}]") for name, matrix in golden_family(size)
    ],
    "lucas": lambda size: [lucas_check(size), *(zeroalg.t_threeway_check(q, size) for q in (2, 3))],
    "primes": lambda size: [fractal.pascal_prime_factorization(size)],
    "primes-check": lambda size: [fractal.pascal_prime_factorization(size)],  # historical alias
    # every block q**(k+1) <= size, so k + 1 < size.bit_length() as q >= 2
    "kron": lambda size: [
        zeroalg.sierpinski_selfsim_check(q, k)
        for q in (2, 3) for k in range(1, size.bit_length()) if q ** (k + 1) <= size
    ],
    "recurrences": lambda size: [recurrence_check(q, size) for q in (2, 3, 5)],
    "umbral": _umbral_reports,
    "convolution": lambda size: [convolution_check(q, size) for q in (2, 3)],
    "decompose-roundtrip": lambda size: [decompose_roundtrip_check(size)],
}


def run_suite(name: str, size: int) -> Report:
    """The named suite's sub-reports at ``size`` merged into one report named
    after the suite; the alias ``primes-check`` reports as ``primes``."""
    try:
        reports = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    if size < 0:
        raise ValueError(f"suite size must be >= 0, got {size}")
    return merge_reports("primes" if name == "primes-check" else name, reports(size))
