import json

import pytest

from genpascal.cli import main
from genpascal.fractal import fractal_matrix
from genpascal.matrices import all_ones
from genpascal.serialize import matrix_from_csv, matrix_from_json


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
    assert matrix_from_csv(out).size == 5


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
    ],
)
def test_decompose_rejects_malformed_documents(capsys, tmp_path, document, message):
    path = tmp_path / "m.json"
    path.write_text(document)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_decompose_zero_matrix_fails(capsys):
    code, _, err = run(
        capsys, "decompose", "--kind", "fractal", "--q", "2", "--phi", "0", "--size", "8"
    )
    assert code == 2
    assert "zero" in err.lower()


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


def test_export_pbm(capsys, tmp_path):
    path = tmp_path / "m.pbm"
    code, _, _ = run(
        capsys,
        "export", "--kind", "fractal", "--q", "2", "--phi", "0", "--size", "4",
        "--output", str(path),
    )
    assert code == 0
    assert path.read_text() == "P1\n4 4\n1000\n1100\n1010\n1111\n"


def test_export_rejects_other_formats(capsys):
    with pytest.raises(SystemExit) as err:
        run(capsys, "export", "--kind", "pascal", "--size", "4", "--format", "json")
    assert err.value.code == 2
