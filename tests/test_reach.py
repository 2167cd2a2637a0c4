"""Every function of src/genpascal is reached by a driver or listed here with a reason.

``tools/reach.py`` runs the digest commands, every verify suite, one round of
each perfbench workload and README's library example under a profile hook,
and prints the functions and methods of ``src/genpascal`` that none of them
called. That output must be exactly the keys of ``UNREACHED``. A new function
that nothing reaches fails here: make a driver reach it, delete it, or list
it with its reason. A listed function that is deleted, or that a driver now
reaches, fails here too, until its line goes. ``python tools/reach.py``
prints the current set.

A reason is a pair (kind, detail), and ``test_every_reason_holds`` checks
the detail:

- ``guard``: a failure or guard path; the detail ``file::test`` names a test
  under ``tests/`` that reaches it;
- ``acceptance``: the detail is a name that ``tests/test_acceptance.py``
  imports or README's library example uses, and that is or calls the function;
- ``perfbench``: the detail is a tracer target in ``perfbench/tracer.py`` or
  a name a ``perfbench/tests`` assertion checks;
- ``dunder``: a dunder of a stored value (``__hash__``, ``__repr__``);
- ``family``: the detail is the ``specs.FAMILIES`` kind whose per-entry form
  it is.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

from genpascal.specs import FAMILIES

ROOT = Path(__file__).parent.parent

UNREACHED = {
    "digits.digits": ("perfbench", "digits:digits"),
    "fractal.b_functional_equation_check": ("acceptance", "b_functional_equation_check"),
    "fractal.fractal_c_check": ("acceptance", "fractal_c_check"),
    "matrices.TriangularMatrix.__hash__": ("dunder", None),
    "matrices.TriangularMatrix.__init__": ("acceptance", "TriangularMatrix"),
    "matrices._first_difference": ("guard", "test_matrices.py::test_identity_check_catches_symmetry_break"),
    "matrices.subtract": ("acceptance", "subtract"),
    "polynomials.Polynomial.__mul__": ("perfbench", "polynomials:Polynomial.__mul__"),
    "polynomials.Polynomial.__repr__": ("dunder", None),
    "polynomials.Polynomial.coeffs": ("acceptance", "fractal_c_check"),
    "polynomials.Polynomial.substitute_power": ("perfbench", "polynomials:Polynomial.substitute_power"),
    "polynomials.mul_trunc": ("perfbench", "polynomials:mul_trunc"),
    "rationals.Value.__hash__": ("dunder", None),
    "rationals.Value.__repr__": ("dunder", None),
    "rationals.Value.__setattr__": ("guard", "test_values.py::test_every_value_refuses_assignment"),
    "rationals._too_long_to_print": ("guard", "test_cli.py::test_entries_past_the_int_text_limit_are_a_config_error"),
    "sequences.BSequence._check": ("guard", "test_sequences.py::test_b_explicit_error_keeps_its_message"),
    "special.PhiCoordinates.is_involution": ("acceptance", "homomorphism_check"),
    "special.homomorphism_check": ("acceptance", "homomorphism_check"),
    "specs._q_binomial": ("family", "qumbral"),
    "zeroalg.block_matrix": ("acceptance", "block_product_check"),
    "zeroalg.block_product_check": ("acceptance", "block_product_check"),
    "zeroalg.carryless_convolve": ("acceptance", "carryless_convolve"),
    "zeroalg.masked_convolve": ("acceptance", "block_product_check"),
    "zeroalg.masked_matrix": ("acceptance", "masked_matrix"),
}


def test_unreached_functions_are_the_listed_ones():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py")], capture_output=True, text=True, timeout=300, check=True
    )
    unreached = set(run.stdout.split())
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not listed: reach them, delete them or list them"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but reached or deleted: take their lines out"


def acceptance_names() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = [b for b in re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL) if "genpascal" in b]
    return imported | set(re.findall(r"\w+", example))


def test_every_reason_holds():
    perfbench = "".join(
        path.read_text(encoding="utf-8") for path in (ROOT / "perfbench" / "tracer.py", *ROOT.glob("perfbench/tests/*.py"))
    )
    acceptance = acceptance_names()
    for name, (kind, detail) in UNREACHED.items():
        if kind == "guard":
            file, test = detail.split("::")
            assert f"\ndef {test}(" in (ROOT / "tests" / file).read_text(encoding="utf-8"), name
        elif kind == "acceptance":
            assert detail in acceptance, name
        elif kind == "perfbench":
            assert f'"{detail}"' in perfbench, name
        elif kind == "dunder":
            assert name.rsplit(".", 1)[1] in ("__hash__", "__repr__"), name
        else:
            assert kind == "family" and detail in FAMILIES, name
