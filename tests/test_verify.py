"""The verify suites' shared work: their random draws, the convolution
check's one dominance pattern and its one pair of series views per case,
the suite table against the suite functions it replaced, and every suite
at the smallest sizes."""

import json
import random
from fractions import Fraction

import pytest

import fraction_oracles as oracle
from genpascal import fractal, verify, zeroalg
from genpascal.cli import main
from genpascal.digits import digit_product_rows
from genpascal.matrices import pascal_rows
from genpascal.rationals import to_view

# each of the nine suites of the table -> the function that made its report before the table
OLD_SUITES = {
    "identities": oracle.suite_identities,
    "lucas": oracle.suite_lucas,
    "primes": fractal.pascal_prime_factorization,
    "primes-check": fractal.pascal_prime_factorization,
    "kron": oracle.suite_kron,
    "recurrences": oracle.suite_recurrences,
    "umbral": oracle.suite_umbral,
    "convolution": oracle.suite_convolution,
    "decompose-roundtrip": verify.decompose_roundtrip_check,
}


def test_draws_match_the_per_draw_list_forms():
    # many tests seed their matrices and series from these helpers, so every value and the rng state stay as they were
    for seed in range(100):
        new, old = random.Random(seed), random.Random(seed)
        for size in range(41):
            got, want = verify.random_c_sequence(new, size), oracle.random_c_sequence(old, size)
            values = [got[n] for n in range(max(size, 2))]
            assert values == [want[n] for n in range(max(size, 2))]
            assert all(type(v) is Fraction for v in values)
            for q in range(2, 8):
                series = verify._random_fractal_series(new, q, size - 1)
                assert series == oracle.random_fractal_series(old, q, size - 1)
                assert all(type(v) is Fraction for v in series)
        assert new.getstate() == old.getstate()


def test_convolution_check_builds_one_pattern(monkeypatch):
    calls = []

    def counted(q, size, block, top=None):
        calls.append((q, size))
        return digit_product_rows(q, size, block, top)

    monkeypatch.setattr(verify, "digit_product_rows", counted)
    monkeypatch.setattr(zeroalg, "digit_product_rows", counted)
    for q, size in [(2, 1), (3, 2), (3, 13), (2, 23)]:
        calls.clear()
        report = verify.convolution_check(q, size)
        assert report.passed and report.checked == 6 * (size * (size + 1) // 2 + size)
        assert calls == [(q, size)]


def test_convolution_check_makes_each_view_once(monkeypatch):
    calls = []

    def counted(values):
        calls.append(1)
        return to_view(values)

    monkeypatch.setattr(zeroalg, "to_view", counted)
    for q, size in [(2, 18), (3, 13)]:
        calls.clear()
        report = verify.convolution_check(q, size)
        assert report.passed and report.checked == 6 * (size * (size + 1) // 2 + size)
        # one view per random draw (two draws in each of 5 cases), then two per case (6 cases)
        assert len(calls) == 22 == 2 * 5 + 2 * 6


def test_every_suite_passes_at_sizes_zero_to_three():
    for name in verify.SUITES:
        for size in range(4):
            report = verify.run_suite(name, size)
            assert report.passed, (name, size, report)
            assert size or report.checked == 0


def test_every_suite_is_its_old_composition():
    assert OLD_SUITES.keys() <= verify.SUITES.keys()
    for name, old in OLD_SUITES.items():
        for size in range(13):
            assert verify.run_suite(name, size).to_dict() == old(size).to_dict(), (name, size)


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_every_suite_refuses_a_negative_size(name):
    with pytest.raises(ValueError, match="suite size must be >= 0, got -1"):
        verify.run_suite(name, -1)


def test_unknown_suite_is_refused_before_the_size():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus", -1)


def test_failing_primes_names_its_subsuite(monkeypatch, capsys):
    # the Pascal rows are the independent side of the check: break entry (6, 3)
    def corrupted(size):
        return [[x + ((n, m) == (6, 3)) for m, x in enumerate(row)] for n, row in enumerate(pascal_rows(size))]

    monkeypatch.setattr(fractal, "pascal_rows", corrupted)
    want = {
        "suite": "primes",
        "pass": False,
        "counterexample": {"n": 6, "m": 3, "got": "20", "want": "21", "subsuite": "primes"},
        "checked": 45,
    }
    for name in ("primes", "primes-check"):
        assert verify.run_suite(name, 9).to_dict() == want
        assert main(["verify", "--suite", name, "--size", "9"]) == 1
        assert json.loads(capsys.readouterr().out) == want
