"""The verify suites' shared work: their random draws and the convolution
check's one dominance pattern."""

import random
from fractions import Fraction

import fraction_oracles as oracle
from genpascal import verify, zeroalg
from genpascal.digits import digit_product_rows


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
