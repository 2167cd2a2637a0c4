"""README's examples run as written: the library example block, and each CLI
command documented with its output (``# -> out`` on its line, or ``# out`` on
the next line) prints that output and exits 0. Its "no floating point
anywhere" holds for the source: no module has a float literal or calls
``float``."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from genpascal.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def documented_outputs() -> list[tuple[list[str], str]]:
    pairs = []
    for block in code_blocks("sh"):
        lines = block.splitlines()
        for line, after in zip(lines, lines[1:] + [""]):
            if not line.startswith("genpascal "):
                continue
            command, _, comment = line.partition("#")
            if comment.startswith(" -> "):
                pairs.append((shlex.split(command)[1:], comment[4:].strip()))
            elif after.startswith("# "):
                pairs.append((shlex.split(command)[1:], after[2:].strip()))
    return pairs


def test_library_example_runs():
    (block,) = [b for b in code_blocks("python") if "from genpascal import" in b]
    exec(compile(block, "README.md", "exec"), {})


def test_every_documented_output_is_found():
    assert [argv[0] for argv, _ in documented_outputs()] == ["eval", "verify", "decompose", "convolve"]


@pytest.mark.parametrize("argv, want", [pytest.param(*pair, id=" ".join(pair[0])) for pair in documented_outputs()])
def test_documented_cli_output(capsys, argv, want):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "genpascal").glob("*.py")), ids=lambda p: p.name)
def test_no_floats_in_the_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    floats = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert floats == [], f"{path.name}: float at lines {floats}"
