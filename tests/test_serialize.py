import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from genpascal.fractal import fractal_matrix
from genpascal.matrices import build_from_c
from genpascal.rationals import format_rational
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
from genpascal.special import phi_q_series
from genpascal.specs import FAMILIES, GPSpec

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


def writer_cases():
    """(kind, spec, q) for every family kind that has a per-entry form."""
    phis = (Fraction(0), Fraction(3, 2), Fraction(-3, 2))
    yield "pascal", GPSpec("pascal"), None
    yield "ones", GPSpec("ones"), None
    for qv in (*phis, 2, 3, 5):
        yield "qumbral", GPSpec.qumbral(qv), None
    for q in (2, 3, 5):
        for phi in phis:
            yield "phiq", GPSpec.phiq(phi, q), q
            yield "fractal", GPSpec.fractal(phi, q), q
            yield "masked", GPSpec.masked([phi**k for k in range(40)], q), q
            if phi:
                yield "from-c", GPSpec.from_c(phi_q_series(phi, q)), q
        yield "zero-overlay", GPSpec("zero-overlay", q=q), q
        yield "tmatrix", GPSpec.tmatrix(q), q
        factors = [GPSpec.phiq(Fraction(3, 2), q), GPSpec.fractal(Fraction(-3, 2), q)]
        yield "hadamard", GPSpec.hadamard(factors), q


def case_id(kind, spec, q):
    if kind == "from-c":
        return f"from-c-{spec.c.kind}"
    if kind == "masked":
        return f"masked-q={q}-a1={spec.a[1]}"
    return f"{kind}-q={spec.q if q is None else q}-phi={spec.phi}"


def test_writer_cases_cover_every_kind_with_an_entry_form():
    assert {kind for kind, (_, entry) in FAMILIES.items() if entry} == {kind for kind, _, _ in writer_cases()}


@pytest.mark.parametrize(
    "kind, spec, q", [pytest.param(*case, id=case_id(*case)) for case in writer_cases()]
)
def test_writers_match_the_per_entry_text(kind, spec, q):
    # the writers read the integer view; the oracle formats each exact entry
    sizes = {0, 1, 40} | ({q, q * q + 1} if q else {2, 3, 5, 10, 26})
    for size in sorted(sizes):
        matrix = spec.materialize(size)
        texts = [[format_rational(spec.entry(n, m)) for m in range(n + 1)] for n in range(size)]
        doc = {"kind": kind, "q": q, "phi": None, "size": size, "rows": texts}
        assert matrix_to_json(matrix, kind, q) == json.dumps(doc, indent=1)
        assert matrix_to_csv(matrix) == "\n".join(map(",".join, texts)) + "\n"
        bits = ["".join("1" if spec.entry(n, m) != 0 else "0" for m in range(size)) for n in range(size)]
        assert matrix_to_pbm(matrix) == "\n".join(["P1", f"{size} {size}", *bits]) + "\n"
