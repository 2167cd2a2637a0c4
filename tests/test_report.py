import json
from fractions import Fraction

import pytest

from genpascal import zeroalg
from genpascal.cli import main
from genpascal.matrices import TriangularMatrix, all_ones, identity_matrix
from genpascal.report import Report, check_equal, merge_reports
from genpascal.verify import run_suite


def test_equal_sequences_count_one_check_per_entry():
    report = check_equal("s", [Fraction(1), Fraction(2), Fraction(3)], [1, 2, 3], q=2)
    assert report == Report("s", True, None, 3)


def test_sequence_difference_names_the_index_and_both_values():
    report = check_equal("s", [1, Fraction(5, 2), 7], [1, Fraction(-3, 2), 9], q=3)
    assert not report.passed
    assert report.checked == 3
    assert report.counterexample == {"q": 3, "n": 1, "got": "5/2", "want": "-3/2"}


def test_equal_entries_in_different_containers_pass():
    assert check_equal("s", [1, 2], (1, 2)).passed


@pytest.mark.parametrize("size", [1, 2, 7])
def test_equal_matrices_count_the_lower_triangle(size):
    report = check_equal("m", all_ones(size), all_ones(size))
    assert report.passed and report.checked == size * (size + 1) // 2


def test_matrix_difference_names_the_entry():
    got = TriangularMatrix([[1], [1, 1], [1, 5, 1]])
    report = check_equal("m", got, all_ones(3), kind="ones")
    assert report == Report("m", False, {"kind": "ones", "n": 2, "m": 1, "got": "5", "want": "1"}, 6)


@pytest.mark.parametrize(
    "got, want, counterexample",
    [
        ([1, 2], [1, 2, 3], {"n": 2, "got": None, "want": "3"}),
        ([1, 2, 3], [1, 2], {"n": 2, "got": "3", "want": None}),
    ],
)
def test_sequences_of_unequal_length(got, want, counterexample):
    report = check_equal("s", got, want)
    assert report == Report("s", False, counterexample, len(want))


def test_matrices_of_unequal_size():
    report = check_equal("m", identity_matrix(2), identity_matrix(3))
    assert report == Report("m", False, {"n": 2, "m": 0, "got": None, "want": "0"}, 6)
    report = check_equal("m", identity_matrix(3), identity_matrix(2))
    assert report == Report("m", False, {"n": 2, "m": 0, "got": "0", "want": None}, 3)


def test_merge_keeps_the_first_failure_and_names_its_subsuite():
    reports = [
        check_equal("a", [1], [1]),
        check_equal("b", [1, 2], [1, 3], q=2),
        check_equal("c", [4], [5]),
    ]
    assert merge_reports("all", reports) == Report(
        "all", False, {"q": 2, "n": 1, "got": "2", "want": "3", "subsuite": "b"}, 4
    )


@pytest.fixture
def corrupt_overlay(monkeypatch):
    """t_matrix_via_overlay with entry (7, 3) raised by one."""
    original = zeroalg.t_matrix_via_overlay

    def corrupted(q, size):
        rows = [list(row) for row in original(q, size).rows]
        rows[7][3] += 1
        return TriangularMatrix(rows)

    monkeypatch.setattr(zeroalg, "t_matrix_via_overlay", corrupted)


def test_corrupted_matrix_fails_its_suite_at_the_entry(corrupt_overlay, capsys):
    want = {"q": 2, "n": 7, "m": 3, "got": "2", "want": "1", "subsuite": "t-overlay"}
    report = run_suite("lucas", 9)
    assert not report.passed
    assert report.counterexample == want
    assert report.checked == 5 * 45  # parity, then t-kronecker and t-overlay for q = 2, 3
    assert main(["verify", "--suite", "lucas", "--size", "9"]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == want
