"""Print the functions and methods of src/genpascal that no driver calls.

    python tools/reach.py

In one process, with a profile hook set before ``genpascal`` is imported (so
calls made at import time count), it runs four drivers:

- every command recorded in ``tests/data/cli_output_digests.json``, through
  ``cli.main`` from the repository root;
- every ``verify.SUITES`` key at size 12;
- one seed-7 round of each workload in ``perfbench/workloads.py``, imported
  without writing bytecode;
- README's library example.

It prints, sorted and one a line, ``module.qualname`` of each module-level
function and class method whose code lies in a ``src/genpascal`` module and
that no driver called. Code made elsewhere is not counted; a function under
``functools.cache`` or ``functools.cached_property`` counts under its own name.
``tests/test_reach.py`` compares the output with its list of the names that
are allowed to stay unreached, each with a reason.
Only the standard library is used.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def defined_functions(module) -> dict[str, object]:
    """``module.qualname`` -> code object of every function the module defines
    at its top level or in the classes it defines, decorators unwrapped."""
    found = {}

    def add(value) -> None:
        value = getattr(value, "__func__", value)  # classmethod, staticmethod
        value = getattr(value, "func", value)  # functools.cached_property
        value = getattr(value, "__wrapped__", value)  # functools.cache
        code = getattr(value, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found[f"{module.__name__.removeprefix('genpascal.')}.{value.__qualname__}"] = code

    for value in vars(module).values():
        if isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, property):
                    for accessor in (member.fget, member.fset, member.fdel):
                        add(accessor)
                else:
                    add(member)
        else:
            add(value)
    return found


def run_digest_commands() -> None:
    from genpascal import cli

    commands = json.loads((ROOT / "tests" / "data" / "cli_output_digests.json").read_text(encoding="utf-8"))
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(command.split())
            except SystemExit:  # argparse refuses the command
                pass


def run_suites() -> None:
    from genpascal import verify

    for suite in verify.SUITES:
        verify.run_suite(suite, 12)


def run_workloads() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in WORKLOADS.items():
            for op in workload(random.Random(7), Path(workdir) / name).round():
                op.run()


def run_readme_example() -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    (block,) = [b for b in blocks if "from genpascal import" in b]
    exec(compile(block, "README.md", "exec"), {})


def main() -> int:
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(SRC))
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    os.chdir(ROOT)  # the digest commands' --input paths are relative to the root
    sys.setprofile(hook)
    try:
        import genpascal

        if Path(genpascal.__file__).parent != SRC / "genpascal":
            sys.exit(f"error: imported genpascal from {genpascal.__file__}, not from {SRC}")
        run_digest_commands()
        run_suites()
        run_workloads()
        run_readme_example()
    finally:
        sys.setprofile(None)
    defined = {}
    for path in sorted((SRC / "genpascal").glob("[!_]*.py")):  # __init__ defines no function
        defined.update(defined_functions(importlib.import_module(f"genpascal.{path.stem}")))
    for name in sorted(name for name, code in defined.items() if code not in called):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
