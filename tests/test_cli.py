import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from genpascal import cli
from genpascal.cli import MAX_INPUT_BYTES, main
from genpascal.errors import NotFractal
from genpascal.fractal import fractal_matrix
from genpascal.matrices import TriangularMatrix, all_ones, build_from_c
from genpascal.rationals import format_rational
from genpascal.sequences import CSequence
from genpascal.serialize import matrix_from_json, matrix_to_json
from genpascal.specs import GPSpec
from genpascal.zeroalg import fractal_series


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "fractal", "--q", "2", "10", "3")
    assert code == 0
    assert out.strip() == "8"


def test_eval_above_diagonal(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "fractal", "--q", "2", "3", "7")
    assert code == 0
    assert out.strip() == "0"


def test_eval_wrong_kind(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "eval", "--kind", "pascal", "--q", "2", "3", "1")
    assert err.value.code == 2


def test_gen_json_round_trip(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "fractal", "--q", "2", "--size", "9", "--output", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "fractal" and doc["q"] == 2 and doc["size"] == 9
    assert matrix_from_json(path.read_text()) == fractal_matrix(2, 2, 9)


def test_gen_all_ones(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "phiq", "--q", "2", "--phi", "1", "--size", "4")
    assert code == 0
    assert matrix_from_json(out) == all_ones(4)


def test_gen_csv(capsys):
    code, out, _ = run(
        capsys, "gen", "--kind", "pascal", "--size", "5", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[4] == "1,4,6,4,1"
    assert oracle.oracle_from_csv(out).size == 5


def test_gen_rational_phi(capsys):
    # negative rationals ride on the --phi=value form
    code, out, _ = run(capsys, "gen", "--kind", "phiq", "--q", "2", "--phi=-3/2", "--size", "3")
    assert code == 0
    assert json.loads(out)["rows"][2][1] == "-3/2"


def test_gen_missing_parameter(capsys):
    code, _, err = run(capsys, "gen", "--kind", "phiq", "--size", "4")
    assert code == 2
    assert "requires" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "fractal", "--q", "2", "--phi=1/0"],
        ["convolve", "--q", "2", "1,1/0", "1,1"],
    ],
)
def test_zero_denominator_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("q", ["1", "0", "-1"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kind", "fractal"], "--q must be >= 2 for kind fractal"),
        (["export", "--kind", "tmatrix"], "--q must be >= 2 for kind tmatrix"),
        (["decompose", "--kind", "phiq", "--phi", "2"], "--q must be >= 2 for kind phiq"),
        (["eval", "--kind", "fractal", "3", "1"], "--q must be >= 2 for kind fractal"),
        (["convolve", "--degree", "3", "1,1", "1,1"], "--q must be >= 2"),  # convolve has no --kind
    ],
    ids=["gen", "export", "decompose", "eval", "convolve"],
)
def test_q_below_two_is_a_config_error(capsys, argv, message, q):
    code, out, err = run(capsys, *argv, f"--q={q}")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_huge_exponent_is_a_config_error(capsys):
    # refused before 10**exponent is built, so this returns at once
    code, out, err = run(capsys, "gen", "--kind", "phiq", "--q", "2", "--phi=1e999999999")
    assert code == 2 and out == ""
    assert err == "error: exponent in '1e999999999' exceeds 4300 in absolute value\n"


INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_TEXT_LIMIT != 4300, reason="needs CPython's default cap on int-to-text conversion")
def test_entries_past_the_int_text_limit_are_a_config_error(capsys):
    argv = ["gen", "--kind", "fractal", "--q", "2", "--phi=1e2000"]
    code, out, _ = run(capsys, *argv, "--size", "8")  # largest entry: 4001 digits
    assert code == 0 and out
    code, out, err = run(capsys, *argv, "--size", "9")
    assert code == 2 and out == ""
    assert "set_int_max_str_digits" not in err
    assert err == "error: an entry has more than 4300 digits, more than the JSON/CSV writers can print\n"


@pytest.mark.skipif(INT_TEXT_LIMIT != 4300, reason="needs CPython's default cap on text-to-int conversion")
@pytest.mark.parametrize("digits", ["9" * 4400, "9" * 4400 + ".5", "1e" + "0" * 4400 + "1"])
def test_rationals_past_the_int_text_limit_are_a_config_error(capsys, tmp_path, digits):
    # the wire form is read with int(), the decimal forms with Fraction(str); both hit the cap
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [["1"], ["1", "1"], ["1", digits, "1"]]}))
    gen = ["gen", "--kind", "phiq", "--q", "3", f"--phi={digits}", "--size", "3"]
    for argv in (["decompose", "--input", str(path)], gen):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "set_int_max_str_digits" not in err and "Exceeds the limit" not in err
        assert err == "error: a rational has more than 4300 digits, more than the readers can parse\n"


def test_parser_is_reused_across_requests(capsys):
    # the parser is built once per process; a usage error must not leave state behind
    from test_cli_output import DIGESTS, digest

    usage_error = ["gen", "--kind", "fractal", "--q", "x"]
    pinned = json.loads(DIGESTS.read_text())
    for argv in (usage_error, ["gen", "--kind", "pascal", "--size", "9", "--format", "json"], usage_error):
        assert digest(argv) == pinned[" ".join(argv)]


def test_gen_bad_size(capsys):
    code, _, _ = run(capsys, "gen", "--kind", "pascal", "--size", "0")
    assert code == 2


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "primes", "--size", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["suite"] == "primes"
    assert doc["counterexample"] is None
    assert doc["checked"] == 136


def test_verify_all_suites_small(capsys):
    for suite in (
        "identities",
        "lucas",
        "kron",
        "recurrences",
        "umbral",
        "convolution",
        "decompose-roundtrip",
    ):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--size", "9")
        assert code == 0, (suite, out)
        assert json.loads(out)["pass"] is True


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "verify", "--suite", "nope", "--size", "8")
    assert err.value.code == 2


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--kind", "pascal", "--size", "8", "--max-q", "6")
    assert code == 0
    assert json.loads(out) == {"2": "2", "3": "3", "4": "2", "5": "5", "6": "1"}


def test_decompose_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "fractal", "--q", "2", "--size", "9", "--output", str(path))
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    assert json.loads(out)["4"] == "2"


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"size": 2}', "list of lists"),
        ("[1, 2]", "list of lists"),
        ('{"rows": [1, 2]}', "list of lists"),
        ('{"rows": [[1]]}', "rational string"),
        ('{"rows": [[["1"]]]}', "rational string"),
        ('{"rows": [[{"a": 1}]]}', "rational string"),
        pytest.param("[" * 200_000 + "]" * 200_000, "nests too deeply", id="deep-nesting"),
    ],
)
def test_decompose_rejects_malformed_documents(capsys, tmp_path, document, message):
    path = tmp_path / "m.json"
    path.write_text(document)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_decompose_reads_a_raw_utf8_digit_like_the_escaped_one(capsys):
    # the same document as decompose-forms.json, with the Arabic-Indic one written raw instead of as \u0661
    raw = DATA / "decompose-forms-utf8.json"
    assert "\u0661".encode() in raw.read_bytes() and b"\\u0661" not in raw.read_bytes()
    escaped = run(capsys, "decompose", "--input", str(DATA / "decompose-forms.json"))
    assert escaped[0] == 0 and escaped[2] == ""
    assert run(capsys, "decompose", "--input", str(raw)) == escaped


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"rows": [["1"], ["1", "\xd9"]]}', "'utf-8' codec can't decode byte 0xd9"),
        (b'{"rows": [["\xff1"]]}', "'utf-8' codec can't decode byte 0xff"),
        (b'\xef\xbb\xbf{"rows": [["1"]]}', "Unexpected UTF-8 BOM"),
    ],
    ids=["truncated-sequence", "invalid-byte", "byte-order-mark"],
)
def test_decompose_rejects_bytes_that_are_not_utf8_json(capsys, tmp_path, data, message):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and "Traceback" not in err


def test_decompose_zero_matrix_fails(capsys):
    code, _, err = run(
        capsys, "decompose", "--kind", "fractal", "--q", "2", "--phi", "0", "--size", "8"
    )
    assert code == 2
    assert "zero" in err.lower()


@pytest.mark.parametrize("rows", [[], [["1"]], [["1"], ["1", "1"]]], ids=["size-0", "size-1", "size-2"])
def test_decompose_of_a_too_small_matrix_names_its_size(capsys, tmp_path, rows):
    # without --max-q the refusal names the matrix's size, not the flag the user did not give
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": rows}))
    want = (2, "", f"error: a matrix of size {len(rows)} is too small to decompose: it needs size >= 3\n")
    assert run(capsys, "decompose", "--input", str(path)) == want
    if rows:
        assert run(capsys, "decompose", "--kind", "ones", "--size", str(len(rows))) == want
        explicit = run(capsys, "decompose", "--input", str(path), "--max-q", "2")
        assert explicit == (2, "", "error: --max-q must satisfy 2 <= max-q < size\n")


def test_decompose_refuses_a_document_past_the_byte_bound_before_reading_it(capsys, tmp_path):
    # a sparse file: truncate sets its size without writing a byte, and os.stat reads that size
    path = tmp_path / "big.json"
    with open(path, "wb") as handle:
        handle.truncate(MAX_INPUT_BYTES + 1)
    size, limit = f"{MAX_INPUT_BYTES + 1:,}", f"{MAX_INPUT_BYTES:,}"
    want = f"error: the document has {size} bytes; decompose --input reads at most {limit} bytes\n"
    assert run(capsys, "decompose", "--input", str(path)) == (2, "", want)
    with open(path, "wb") as handle:  # at the bound the document is read, and its zero bytes are no JSON
        handle.truncate(MAX_INPUT_BYTES)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error: Expecting value")


def test_decompose_reads_a_pipe_up_to_the_bound(capsys, monkeypatch):
    # a pipe stats as 0 bytes, so the bound holds on the characters it sends (here with a bound of 12)
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 12)
    for document, want in (
        ('{"rows": []}', "error: a matrix of size 0 is too small to decompose: it needs size >= 3\n"),
        ('{"rows": [] }', "error: the document has more than 12 characters; decompose --input reads at most 12 bytes\n"),
    ):
        read, write = os.pipe()
        os.write(write, document.encode())
        os.close(write)
        try:
            assert run(capsys, "decompose", "--input", f"/dev/fd/{read}") == (2, "", want)
        finally:
            os.close(read)


def fraction_betas(matrix, max_q: int) -> dict[int, Fraction]:
    """beta_q = b_q / prod of beta_d over the divisors 1 < d < q, in Fractions, with b_n = (n, 1)."""
    betas = {}
    for q in range(2, max_q + 1):
        divisors = [betas[d] for d in range(2, q) if q % d == 0]
        betas[q] = matrix.entry(q, 1) / math.prod(divisors, start=Fraction(1))
    return betas


def big_c_sequence(rng: random.Random, size: int) -> CSequence:
    """c_0 = c_1 = 1 and signed c_n, some small, some with numerator and denominator of hundreds of digits."""
    c = [Fraction(1), Fraction(1)]
    for _ in range(size - 2):
        digits = rng.choice([1, 1, 200, 400])
        sign = rng.choice([1, -1])
        c.append(Fraction(sign * rng.randrange(1, 10**digits), rng.randrange(1, 10 ** rng.choice([1, digits]))))
    return CSequence.explicit(c)


@pytest.mark.parametrize("seed", range(8))
def test_decompose_prints_the_fraction_betas_and_makes_no_fraction(capsys, tmp_path, seed):
    # the betas printed from int pairs are format_rational of the Fraction betas, byte for byte, and
    # reading the document, the coordinate sieve and the printing build no Fraction
    rng = random.Random(seed)
    size = rng.randint(3, 24)
    matrix = build_from_c(big_c_sequence(rng, size), size)
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(matrix, "from-c"))
    want = json.dumps({str(q): format_rational(beta) for q, beta in fraction_betas(matrix, size - 1).items()})
    assert max(map(len, json.loads(want).values())) > 200  # each seed draws a beta of hundreds of digits
    assert oracle.fractions_made(lambda: main(["decompose", "--input", str(path)])) == 0
    assert capsys.readouterr() == (want + "\n", "")


def test_convolve_base_block(capsys):
    code, out, _ = run(capsys, "convolve", "--q", "2", "--degree", "7", "1,1", "1,1")
    assert code == 0
    assert out.strip() == "1,2,2,4,2,4,4,8"


def test_convolve_full_series(capsys):
    series = ",".join(["1"] * 8)
    code, out, _ = run(capsys, "convolve", "--q", "2", "--degree", "7", series, series)
    assert code == 0
    assert out.strip() == "1,2,2,4,2,4,4,8"


def test_convolve_not_fractal(capsys):
    series = "1,1,5," + ",".join(["1"] * 5)
    code, _, err = run(capsys, "convolve", "--q", "2", "--degree", "7", series, series)
    assert code == 2
    assert "digit-multiplicative" in err


def test_convolve_bad_length(capsys):
    code, _, err = run(capsys, "convolve", "--q", "2", "--degree", "7", "1,1,1", "1,1")
    assert code == 2
    assert "coefficients" in err


def output(*argv):
    """(exit code, stdout, stderr) of one CLI run, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


block_tail = st.lists(
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)),
    min_size=5,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=194),
    block_tail,
    block_tail,
    st.sampled_from([(1, 1)] * 4 + [(2, 1), (1, 0), (0, 2)]),  # a leading "-" would read as an option
)
@example(2, 0, [1] * 5, [1] * 5, (1, 1))
@example(6, 194, [Fraction(-1, 2)] * 5, [Fraction(7, 3)] * 5, (1, 1))
@example(3, 5, [1] * 5, [2] * 5, (2, 1))  # a_0 must be 1 in a
@example(3, 5, [1] * 5, [2] * 5, (1, 3))  # in b
@example(3, 5, [1] * 5, [2] * 5, (0, 0))  # in both
def test_convolve_base_blocks_print_what_their_full_series_print(q, offset, a_tail, b_tail, heads):
    degree = q + offset
    blocks = [[Fraction(head), *tail[: q - 1]] for head, tail in zip(heads, (a_tail, b_tail))]
    argv = ["convolve", "--q", str(q), "--degree", str(degree)]
    got = output(*argv, *(",".join(map(str, block)) for block in blocks))
    want = output(*argv, *(",".join(map(str, fractal_series(block, q, degree))) for block in blocks))
    assert got == want
    assert got[0] == (0 if heads == (1, 1) else 2)


coefficient = st.sampled_from([Fraction(0), Fraction(-1), Fraction(-5, 3)]) | st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=200), st.data())
def test_convolve_prints_the_fraction_series(q, degree, data):
    # each input is a base block or a full series (the extension of a block, now and then with one
    # coefficient changed, so that the check fails); a leading "-" would read as an option
    inputs = []
    for name in "ab":
        head = data.draw(st.sampled_from([1] * 4 + [0, 2]), label=f"{name} head")
        block = [Fraction(head), *data.draw(st.lists(coefficient, min_size=q - 1, max_size=q - 1), label=name)]
        if q <= degree and data.draw(st.booleans(), label=f"{name} as a block"):
            inputs.append(block)
            continue
        series = oracle.fractal_series(block, q, degree)
        if data.draw(st.booleans(), label=f"{name} changed"):
            series[data.draw(st.integers(min_value=1, max_value=degree), label="at") if degree else 0] += 1
        inputs.append(series)
    got = output("convolve", "--q", str(q), "--degree", str(degree), *(",".join(map(str, x)) for x in inputs))
    # the parent routes: two base blocks extend their carryless product once, else both are full series
    try:
        if all(len(x) == q <= degree for x in inputs):
            want = oracle.fractal_series(oracle.carryless_convolve(*inputs, q, q - 1), q, degree)
        else:
            full = [x if len(x) > degree else oracle.fractal_series(x, q, degree) for x in inputs]
            want = oracle.carryless_convolve(*full, q, degree)
    except NotFractal as exc:
        assert got == (2, "", f"error: {exc}\n")
    else:
        assert got == (0, ",".join(map(format_rational, want)) + "\n", "")


@pytest.mark.skipif(INT_TEXT_LIMIT != 4300, reason="needs CPython's default cap on int-to-text conversion")
@pytest.mark.parametrize(
    "argv",
    [
        ["--degree", "1", "1,1e4300", "1,1"],  # full series: coefficient 1 is 10**4300 + 1
        ["--degree", "3", "1,1e2200", "1,1"],  # base blocks: coefficient 3 is (10**2200 + 1)**2
    ],
    ids=["full-series", "base-blocks"],
)
def test_convolve_past_the_int_text_limit_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, "convolve", "--q", "2", *argv)
    assert code == 2 and out == ""
    assert err == "error: an entry has more than 4300 digits, more than the JSON/CSV writers can print\n"


def test_export_pbm(capsys, tmp_path):
    path = tmp_path / "m.pbm"
    code, _, _ = run(
        capsys,
        "export", "--kind", "fractal", "--q", "2", "--phi", "0", "--size", "4",
        "--output", str(path),
    )
    assert code == 0
    assert path.read_text() == "P1\n4 4\n1000\n1100\n1010\n1111\n"


# each kind at parameters that give its zero pattern zeros where it has any
EXPORT_KINDS = {
    "pascal": [],
    "ones": [],
    "phiq": ["--q", "3", "--phi", "0"],
    "fractal": ["--q", "2", "--phi", "0"],
    "qumbral": ["--q", "-1"],
    "qumbral-inverse": ["--q", "0"],
    "zero-overlay": ["--q", "2"],
    "tmatrix": ["--q", "3"],
}


def test_export_builds_no_matrix(capsys, monkeypatch):
    assert EXPORT_KINDS.keys() == set(cli.KINDS)
    wanted = {}
    for kind, args in EXPORT_KINDS.items():
        q = int(args[1]) if args else None
        spec = GPSpec(kind, q=q, phi=0 if "--phi" in args else q if kind == "fractal" else None)
        wanted[kind] = oracle.matrix_to_pbm(spec.materialize(30))

    def refuse(*args, **kwargs):
        raise AssertionError("export built a matrix")

    monkeypatch.setattr(GPSpec, "materialize", refuse)
    monkeypatch.setattr(TriangularMatrix, "from_view", refuse)
    for kind, args in EXPORT_KINDS.items():
        assert run(capsys, "export", "--kind", kind, *args, "--size", "30") == (0, wanted[kind], ""), kind
    # the argument checks come first, as before
    assert run(capsys, "export", "--kind", "tmatrix", "--q", "1") == (2, "", "error: --q must be >= 2 for kind tmatrix\n")
    assert run(capsys, "export", "--kind", "phiq", "--q", "2") == (2, "", "error: --kind phiq requires --phi\n")


def test_export_rejects_other_formats(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "export", "--kind", "pascal", "--size", "4", "--format", "json")
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "pascal", "--size", "2"],
        ["gen", "--kind", "fractal", "--q", "3", "--phi=-3/2", "--size", "7", "--format", "csv"],
        ["export", "--kind", "phiq", "--q", "2", "--phi", "0", "--size", "5"],
    ],
)
def test_output_file_is_what_stdout_prints(capsys, tmp_path, argv):
    # before, the file lacked the final newline that stdout gets
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    path = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("ascii")
