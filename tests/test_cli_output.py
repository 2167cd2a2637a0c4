"""Byte-for-byte CLI output, pinned by sha256 digests.

Every matrix kind goes through ``gen`` json, ``gen`` csv and ``export`` pbm,
and every ``--q``/``--phi``/``--size`` parameter error is run once. The digests of
stdout and stderr and the exit code of each command are stored in
``data/cli_output_digests.json``. They were recorded from the per-kind
``if`` chain in ``cli.build_matrix`` before it was replaced by the family
table, so a refactor of the families has to keep every byte.

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

DIGESTS = Path(__file__).parent / "data" / "cli_output_digests.json"

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
]

COMMANDS = [
    [command, *kind, "--size", "9", *fmt]
    for kind in KIND_ARGS
    for command, fmt in (("gen", ["--format", "json"]), ("gen", ["--format", "csv"]), ("export", []))
] + ERROR_ARGS


def digest(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, *(hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))]


def test_every_command_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_unchanged(argv):
    assert digest(argv) == json.loads(DIGESTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    json.dump({" ".join(argv): digest(argv) for argv in COMMANDS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
