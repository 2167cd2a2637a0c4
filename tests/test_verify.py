"""The verify suites' shared work: their random draws, the convolution
check's one dominance pattern and its one pair of series views per case,
and every suite at the smallest sizes."""

import random
from fractions import Fraction

import fraction_oracles as oracle
from genpascal import verify, zeroalg
from genpascal.digits import digit_product_rows
from genpascal.rationals import to_view


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
