import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from fraction_oracles import oracle_from_csv, oracle_from_json
from genpascal.fractal import fractal_matrix
from genpascal.matrices import TriangularMatrix, build_from_c
from genpascal.rationals import format_rational
from genpascal.sequences import CSequence
from genpascal.serialize import (
    _wire_view,
    matrix_from_doc,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_doc,
    matrix_to_json,
    matrix_to_pbm,
)
from genpascal.specs import FAMILIES, GPSpec

DATA = Path(__file__).parent / "data"


def sample():
    return build_from_c(oracle.c_fractal(2), 9)


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
    assert oracle_from_csv(text) == m


def test_read_entries_are_exactly_fractions():
    rows = [["1"], ["3/6", " 2 "], ["1.5", "1/2", "1/2"]]
    m = matrix_from_json(json.dumps({"size": 3, "rows": rows}))
    assert all(type(e) is Fraction for row in m.rows for e in row)
    assert m.rows == ((1,), (Fraction(1, 2), 2), (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_reads_like_the_oracle(read, oracle, text) -> None:
    got, want = outcome(read, text), outcome(oracle, text)
    assert got == want
    if isinstance(want, tuple):  # both raised the same ValueError
        return
    assert got.int_view() == want.int_view()
    assert hash(got) == hash(want)
    assert got.rows == want.rows
    assert all(type(e) is Fraction for row in got.rows for e in row)


def entry_texts(value: Fraction) -> list[str]:
    """Accepted spellings of one value: the wire form and the other forms the readers take."""
    wire = format_rational(value)
    n, d = value.numerator, value.denominator
    texts = [wire, f" {wire} ", f"{3 * n}/{3 * d}", f"{wire}\t"]
    if n >= 0:
        texts.append(f"+{wire}")
    if d == 1:
        texts += [f"{n}e0", f"{n}.0", wire.translate(ARABIC_INDIC), f"{10 * n}E-1"]
        if n == 0:
            texts.append("-0")
    if 10**6 % d == 0:  # a terminating decimal
        scaled = abs(n) * (10**6 // d)
        sign = "-" if n < 0 else ""
        texts += [f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}", f"{n * (10**6 // d)}e-6"]
    return texts


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")

values = st.one_of(
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 1, 1, 2, 3, 4, 5, 8, 10, 12, 25])),
    st.integers(-(10**30), 10**30).map(Fraction),
)


@st.composite
def documents(draw):
    """The rows of a lower-triangular matrix, each entry spelled in one of its accepted forms."""
    size = draw(st.integers(0, 7))
    rows = []
    for n in range(size):
        row = []
        for _ in range(n + 1):
            value = draw(values)
            row.append(draw(st.sampled_from(entry_texts(value))))
        rows.append(row)
    return rows


def wire_texts(value: Fraction) -> list[str]:
    """Spellings of one value in the wire grammar ``-?digits(/digits)?``: its text, unreduced and zero-padded."""
    wire = format_rational(value)
    n, d = value.numerator, value.denominator
    sign = "-" if n < 0 else ""
    texts = [wire, f"{3 * n}/{3 * d}", f"{sign}00{abs(n)}/0{d}", f"{sign}00{wire.lstrip('-')}"]
    if n == 0:
        texts += ["-0", "-0/7"]
    return texts


@st.composite
def wire_documents(draw):
    """The rows of a lower-triangular matrix whose entries are all wire text, so the reader's wire pass takes them."""
    size = draw(st.integers(0, 7))
    return [[draw(st.sampled_from(wire_texts(draw(values)))) for _ in range(n + 1)] for n in range(size)]


def json_text(rows, size=None):
    return json.dumps({"kind": "from-c", "size": len(rows) if size is None else size, "rows": rows})


@settings(max_examples=300, deadline=None)
@given(st.one_of(documents(), wire_documents()))
@example([["1"], ["3/6", " 2 "], ["1.5", "1e-3", "-0"], ["+7", "\u0661\u0662", "-3/2", "1"]])
@example([["3/6"], ["-4/8", "10/5"], ["0/7", "6/4", "-0/3"]])  # unreduced wire fractions
@example([])
def test_readers_match_the_fraction_oracle(rows):
    assert_reads_like_the_oracle(matrix_from_json, oracle_from_json, json_text(rows))


@settings(max_examples=100, deadline=None)
@given(wire_documents())
@example([["1"], ["-0", "007"], ["0/7", "-9/6", "003/01"]])
def test_wire_documents_are_read_without_a_fraction(rows):
    # the wire pass takes every all-wire document, so parse_rational never runs
    text = json_text(rows)
    assert oracle.fractions_made(lambda: matrix_from_json(text)) == 0


BAD_ENTRIES = ["x", "1/0", "1/2/3", "", "nan", "1e5000", "١/٠", "1" * 4400, "2²"]
BAD_JSON_ENTRIES = [7, 1.5, float("nan"), None, True, [1], {"a": "1"}]
# entries at the edge of the wire grammar -?digits(/digits)?: some are wire, some are read by
# parse_rational only, some are refused; a 4,400-digit side is past CPython's int-text cap
NEAR_WIRE = [
    "3/-2", "1/+2", "3/ 2", "+3", " 3", "1_0", "-", "1-2", "--1", "/3", "3/", "1/0", "0/0", "-0", "007", "0/7",
    "\u0663", "\u0661/\u0662", "1\n2", "1,2", "7" * 4400 + "/3", "3/" + "7" * 4400, "7" * 4400 + "/" + "3" * 4400,
    "\ud800",  # a lone surrogate, which JSON can escape and no UTF-8 encoder takes
]


@pytest.mark.parametrize("entry", NEAR_WIRE, ids=[f"{i}-{entry[:8]!r}" for i, entry in enumerate(NEAR_WIRE)])
def test_near_wire_entries_read_like_the_oracle(entry):
    # among wire entries, where the wire pass takes the document unless the entry makes it refuse,
    # and as the first entry, the last one and the only one
    for rows in (
        [["1"], ["2/3", entry], ["1", "-5", "4/6"]],
        [[entry], ["1", "1"], ["1", "2", "1"]],
        [["1"], ["-1/2", "1"], ["1", "3", entry]],
        [[entry]],
    ):
        assert_reads_like_the_oracle(matrix_from_json, oracle_from_json, json_text(rows))


def test_the_wire_pass_reads_text_past_one_slice():
    # 1.3 MB of joined entry text is checked in two slices; a refused entry in the last one is found
    entries = [str(k) for k in range(200_000)] + ["-1/2"]
    assert _wire_view(entries) == (2, [2 * k for k in range(200_000)] + [-1])
    for bad in ("x", "\u0661", "\ud800", "1/0"):
        assert _wire_view([*entries, bad]) is None


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(documents(), wire_documents()),
    st.lists(st.tuples(st.integers(0, 50), st.sampled_from(BAD_ENTRIES + BAD_JSON_ENTRIES + NEAR_WIRE)), max_size=3),
    st.sampled_from(["none", "drop", "extra"]),
    st.integers(-1, 1),
)
def test_malformed_documents_raise_the_oracle_error(rows, bad, misshape, size_shift):
    # bad entries at drawn positions, one row maybe one entry short or long, the size field maybe off
    entries = [(n, m) for n, row in enumerate(rows) for m in range(len(row))]
    for position, value in bad:
        if entries:
            n, m = entries[position % len(entries)]
            rows[n][m] = value
    if rows and misshape != "none":
        row = rows[len(rows) // 2]
        if misshape == "drop":
            row.pop()
        else:
            row.append("1")
    assert_reads_like_the_oracle(matrix_from_json, oracle_from_json, json_text(rows, len(rows) + size_shift))


MALFORMED = {
    # the first bad entry in row order is named, not the first distinct one parsed
    "two-bad-entries": [["1"], ["1", "x"], ["1/0", "1", "x"]],
    "two-bad-entries-reversed": [["1"], ["1", "1/0"], ["x", "1", "1/0"]],
    "unhashable-entry": [["1"], ["1", [1]], ["x", "1", "1"]],
    "unhashable-after-a-bad-entry": [["1"], ["y", [1]], ["1", "1", "1"]],
    "json-number": [["1"], ["1", 2], ["1", "2", "1"]],
    "json-nan": [["1"], ["1", "1"], ["1", float("nan"), "1"]],
    "4400-digit-integer": [["1"], ["1", "1" * 4400], ["1", "2", "1"]],
    "4400-digit-fraction": [["1"], ["1", "1/" + "3" * 4400], ["1", "2", "1"]],
    "bad-entry-in-a-misshapen-row": [["1"], ["1", "1", "1", "x"], ["1", "2", "1"]],
    "misshapen-row": [["1"], ["1", "1", "1"], ["1", "2", "1"]],
}


@pytest.mark.parametrize("rows", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_cases(rows):
    got = outcome(matrix_from_json, json_text(rows))
    assert isinstance(got, tuple) and got == outcome(oracle_from_json, json_text(rows))


def test_size_field_mismatch_comes_after_the_entries():
    rows = [["1"], ["1", "1"], ["1", "2", "1"]]
    for size, rows_ in ((4, rows), (4, [["1"], ["1", "x"]]), (2, [["1"], ["1", "1", "1"]])):
        text = json_text(rows_, size)
        got = outcome(matrix_from_json, text)
        assert isinstance(got, tuple) and got == outcome(oracle_from_json, text)
    assert outcome(matrix_from_json, json_text(rows, 4)) == (ValueError, "size field disagrees with row count")


def test_pbm_small():
    text = matrix_to_pbm(GPSpec.fractal(0, 2).bitmap(4))
    assert text == "P1\n4 4\n1000\n1100\n1010\n1111\n"


def test_pbm_golden_file():
    # the checked-in bitmap was produced from parities of ordinary binomials
    golden = (DATA / "sierpinski64.pbm").read_text(encoding="ascii")
    assert matrix_to_pbm(GPSpec.fractal(0, 2).bitmap(64)) == golden
    lines = golden.splitlines()
    assert lines[0] == "P1" and lines[1] == "64 64"
    for n, line in enumerate(lines[2:]):
        for m, bit in enumerate(line):
            assert int(bit) == (comb(n, m) % 2 if m <= n else 0)


@st.composite
def view_matrices(draw):
    """from_view matrices of size 0 to 12 with signed, often fractional entries."""
    size = draw(st.integers(min_value=0, max_value=12))
    count = size * (size + 1) // 2
    flat = iter(draw(st.lists(st.integers(-(10**30), 10**30), min_size=count, max_size=count)))
    rows = [[next(flat) for _ in range(n + 1)] for n in range(size)]
    return TriangularMatrix.from_view(draw(st.integers(1, 12)), rows)


@settings(max_examples=200, deadline=None)
@given(
    view_matrices(),
    st.sampled_from(sorted(FAMILIES)),
    st.one_of(st.none(), st.integers(-5, 10**6)),
    st.one_of(st.none(), st.fractions(max_denominator=12)),
)
@example(TriangularMatrix([]), "pascal", None, None)
def test_json_writer_is_json_dumps(matrix, kind, q, phi):
    assert matrix_to_json(matrix, kind, q, phi) == json.dumps(matrix_to_doc(matrix, kind, q, phi), indent=1)


def pinned_writer_specs():
    """(kind, spec, q) at the fixed parameters phi in {0, 3/2, -3/2} and q in {2, 3, 5}:
    the cases test_specs.test_family_differential draws at random, run every time."""
    phis = (Fraction(0), Fraction(3, 2), Fraction(-3, 2))
    yield "pascal", GPSpec("pascal"), None
    yield "ones", GPSpec("ones"), None
    for qv in (*phis, 2, 3, 5):
        yield "qumbral", GPSpec.qumbral(qv), None
        yield "qumbral-inverse", GPSpec("qumbral-inverse", q=Fraction(qv)), None
    for q in (2, 3, 5):
        for phi in phis:
            yield "phiq", GPSpec.phiq(phi, q), q
            yield "fractal", GPSpec.fractal(phi, q), q
            if phi:
                yield "from-c", GPSpec.from_c(oracle.phi_q_series(phi, q)), q
        yield "zero-overlay", GPSpec("zero-overlay", q=q), q
        yield "tmatrix", GPSpec.tmatrix(q), q
        factors = [GPSpec.phiq(Fraction(3, 2), q), GPSpec.fractal(Fraction(-3, 2), q)]
        yield "hadamard", GPSpec.hadamard(factors), q
        # zeros of two bases under a from-c factor, one Hadamard spec inside another
        inner = GPSpec.hadamard([GPSpec.fractal(0, q), GPSpec("zero-overlay", q=q + 1)])
        yield "hadamard", GPSpec.hadamard([GPSpec.from_c(oracle.phi_q_series(Fraction(3, 2), q)), inner]), q


def case_id(kind, spec, q):
    if kind == "from-c":
        return f"from-c-{spec.c.kind}"
    if any(f.kind == "hadamard" for f in spec.factors):
        return f"hadamard-nested-q={q}"
    return f"{kind}-q={spec.q if q is None else q}-phi={spec.phi}"


@pytest.mark.parametrize(
    "kind, spec, q", [pytest.param(*case, id=case_id(*case)) for case in pinned_writer_specs()]
)
def test_writers_match_the_per_entry_text(kind, spec, q):
    # the JSON and CSV writers read the integer view and the bitmap is the spec's closed form;
    # the oracle formats each exact entry
    sizes = {0, 1, 40} | ({q, q * q + 1} if q else {2, 3, 5, 10, 26})
    for size in sorted(sizes):
        matrix = spec.materialize(size)
        texts = [[format_rational(spec.entry(n, m)) for m in range(n + 1)] for n in range(size)]
        doc = {"kind": kind, "q": q, "phi": None, "size": size, "rows": texts}
        assert matrix_to_json(matrix, kind, q) == json.dumps(doc, indent=1)
        assert matrix_to_csv(matrix) == "\n".join(map(",".join, texts)) + "\n"
        bits = ["".join("1" if spec.entry(n, m) != 0 else "0" for m in range(size)) for n in range(size)]
        assert matrix_to_pbm(spec.bitmap(size)) == "\n".join(["P1", f"{size} {size}", *bits]) + "\n"
