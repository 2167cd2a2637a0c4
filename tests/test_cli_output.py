"""Byte-for-byte CLI output, pinned by sha256 digests.

Every matrix kind goes through ``gen`` json, ``gen`` csv and ``export`` pbm,
and every ``--q``/``--phi``/``--size`` parameter error is run once. The digests of
stdout and stderr and the exit code of each command are stored in
``data/cli_output_digests.json``. They were recorded from the per-kind
``if`` chain in ``cli.build_matrix`` before it was replaced by the family
table, so a refactor of the families has to keep every byte.

Every ``verify`` suite, both ``convolve`` input forms and one successful
``decompose`` are pinned too; their digests were recorded from the
hand-written equality checks in the suites, before ``report.check_equal``
replaced them, and they pin each suite's ``checked`` count.

``decompose --input`` reads the three documents under ``data/``: wire
fractions, other accepted entry forms, and a malformed document whose first
bad entry (in a misshapen row, under a wrong size field) is named. Their
digests were recorded from the Fraction-per-entry readers, before the readers
built the integer view directly. Commands run from the repository root.

To re-record after an intended output change:
``PYTHONPATH=src python tests/test_cli_output.py > tests/data/cli_output_digests.json``
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from genpascal.cli import main
from genpascal.verify import SUITES

ROOT = Path(__file__).parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_output_digests.json"

KIND_ARGS = [
    ["--kind", "pascal"],
    ["--kind", "ones"],
    ["--kind", "phiq", "--q", "3", "--phi=-3/2"],
    ["--kind", "fractal", "--q", "2"],
    ["--kind", "fractal", "--q", "3", "--phi", "1/2"],
    ["--kind", "fractal", "--q", "2", "--phi", "0"],
    ["--kind", "qumbral", "--q", "-1"],
    ["--kind", "qumbral", "--q", "2"],
    ["--kind", "qumbral-inverse", "--q", "2"],
    ["--kind", "zero-overlay", "--q", "3"],
    ["--kind", "tmatrix", "--q", "3"],
]

ERROR_ARGS = [
    ["gen", "--kind", "phiq", "--q", "2"],
    ["gen", "--kind", "phiq", "--phi", "2"],
    ["gen", "--kind", "phiq", "--phi", "abc"],
    ["gen", "--kind", "phiq", "--q", "1", "--phi", "2"],
    ["gen", "--kind", "fractal"],
    ["gen", "--kind", "fractal", "--q", "1"],
    ["gen", "--kind", "fractal", "--q", "x"],
    ["gen", "--kind", "fractal", "--q", "2", "--phi", "1/2/3"],
    ["gen", "--kind", "qumbral"],
    ["gen", "--kind", "qumbral-inverse", "--phi", "2"],
    ["gen", "--kind", "zero-overlay", "--q", "0"],
    ["gen", "--kind", "tmatrix", "--q", "-2"],
    ["gen", "--kind", "pascal", "--phi", "abc"],
    ["gen", "--kind", "pascal", "--size", "0"],
    ["gen", "--kind", "pascal", "--size", "-3"],
    ["gen", "--kind", "pascal", "--size", "x"],
    ["gen", "--kind", "ones", "--q", "1", "--size", "3"],
    ["gen", "--kind", "tmatrix", "--size", "0"],
    ["export", "--kind", "tmatrix", "--q", "1"],
    ["export", "--kind", "phiq", "--q", "2"],
    ["decompose", "--kind", "fractal", "--size", "6"],
    ["decompose", "--kind", "pascal", "--size", "8"],
    # a zero b_n past --max-q is still refused: the whole first column is read
    ["decompose", "--kind", "phiq", "--q", "5", "--phi", "0", "--size", "8", "--max-q", "3"],
    # the remaining refusals of verify, decompose and convolve
    ["verify", "--suite", "primes", "--size", "0"],
    ["decompose", "--size", "5"],
    ["decompose", "--kind", "pascal", "--size", "8", "--max-q", "8"],
    # without --max-q a matrix too small to decompose is refused by its size
    ["decompose", "--kind", "pascal", "--size", "2"],
    ["convolve", "--q", "2", "--degree", "-1", "1,1", "1,1"],
    # convolve has no --kind, so its --q refusal names none
    ["convolve", "--q", "1", "--degree", "3", "1,1", "1,1"],
]

SUCCESS_ARGS = [
    *(["verify", "--suite", suite, "--size", "9"] for suite in sorted(SUITES)),
    ["convolve", "--q", "2", "--degree", "7", "1,3,3,9,3,9,9,27", "1,1,1,1,1,1,1,1"],
    ["convolve", "--q", "3", "--degree", "10", "1,-2,1/3", "1,1/2,5"],
    ["decompose", "--kind", "pascal", "--size", "8", "--max-q", "6"],
]

# export edges that the kind rows at size 9 do not reach, recorded before export drew its bitmaps
# from each family's zero pattern: a base above the size, a size past q**3, the one-digit masks
# and the q-umbral inverse at its two zero-making q
EXPORT_EDGES = [
    ["export", "--kind", "tmatrix", "--q", "11", "--size", "9"],
    ["export", "--kind", "fractal", "--q", "3", "--phi", "0", "--size", "28"],
    ["export", "--kind", "zero-overlay", "--q", "2", "--size", "9"],
    ["export", "--kind", "phiq", "--q", "4", "--phi", "0", "--size", "9"],
    ["export", "--kind", "qumbral-inverse", "--q", "-1", "--size", "9"],
    ["export", "--kind", "qumbral-inverse", "--q", "0", "--size", "9"],
]

INPUT_ARGS = [
    ["decompose", "--input", f"tests/data/decompose-{name}.json"] for name in ("wire", "forms", "malformed")
]

COMMANDS = [
    [command, *kind, "--size", "9", *fmt]
    for kind in KIND_ARGS
    for command, fmt in (("gen", ["--format", "json"]), ("gen", ["--format", "csv"]), ("export", []))
] + ERROR_ARGS + SUCCESS_ARGS + INPUT_ARGS + EXPORT_EDGES


def digest(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the --input paths are relative to the repository root
    try:
        # argparse wraps its usage line to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return [code, *(hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))]


def test_every_command_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_unchanged(argv):
    assert digest(argv) == json.loads(DIGESTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    json.dump({" ".join(argv): digest(argv) for argv in COMMANDS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
