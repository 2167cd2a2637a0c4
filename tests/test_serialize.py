import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from genpascal.fractal import fractal_matrix
from genpascal.matrices import build_from_c
from genpascal.sequences import CSequence
from genpascal.serialize import (
    matrix_from_csv,
    matrix_from_doc,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_json,
    matrix_to_pbm,
)

DATA = Path(__file__).parent / "data"


def sample():
    return build_from_c(CSequence.fractal(2), 9)


def test_doc_layout():
    doc = matrix_to_doc(fractal_matrix(Fraction(1, 2), 2, 3), "fractal", 2, Fraction(1, 2))
    assert doc["kind"] == "fractal"
    assert doc["q"] == 2
    assert doc["phi"] == "1/2"
    assert doc["size"] == 3
    assert doc["rows"] == [["1"], ["1", "1"], ["1", "1/2", "1"]]


def test_json_round_trip():
    m = sample()
    assert matrix_from_json(matrix_to_json(m, "fractal", 2, Fraction(2))) == m


def test_json_rationals_survive():
    m = build_from_c(CSequence.explicit([1, 1, Fraction(-3, 7), Fraction(1, 24)]), 4)
    assert matrix_from_json(matrix_to_json(m, "from-c")) == m


def test_size_field_checked():
    doc = matrix_to_doc(sample(), "fractal")
    doc["size"] = 4
    with pytest.raises(ValueError):
        matrix_from_doc(doc)


def test_csv_round_trip():
    m = sample()
    text = matrix_to_csv(m)
    assert text.splitlines()[2] == "1,2,1"
    assert matrix_from_csv(text) == m


def test_read_entries_are_exactly_fractions():
    rows = [["1"], ["3/6", " 2 "], ["1.5", "1/2", "1/2"]]
    doc = json.dumps({"size": 3, "rows": rows})
    text = "\n".join(",".join(row) for row in rows)
    for m in (matrix_from_json(doc), matrix_from_csv(text)):
        assert all(type(e) is Fraction for row in m.rows for e in row)
        assert m.rows == ((1,), (Fraction(1, 2), 2), (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))


def test_pbm_small():
    text = matrix_to_pbm(fractal_matrix(0, 2, 4))
    assert text == "P1\n4 4\n1000\n1100\n1010\n1111\n"


def test_pbm_golden_file():
    # the checked-in bitmap was produced from parities of ordinary binomials
    golden = (DATA / "sierpinski64.pbm").read_text(encoding="ascii")
    assert matrix_to_pbm(fractal_matrix(0, 2, 64)) == golden
    lines = golden.splitlines()
    assert lines[0] == "P1" and lines[1] == "64 64"
    for n, line in enumerate(lines[2:]):
        for m, bit in enumerate(line):
            assert int(bit) == (comb(n, m) % 2 if m <= n else 0)
