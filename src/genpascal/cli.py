"""Command line interface.

Subcommands: ``gen`` (write a matrix document), ``eval`` (one coefficient via
the fast digit path), ``verify`` (run a named suite, exit 0 iff it passes),
``decompose`` (mask-weight coordinates as JSON), ``convolve`` (carryless
product series) and ``export`` (PBM bitmap). Exit codes: 0 success, 1 failed
verification, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import fractal, special, zeroalg
from .errors import ZeroEntry, ZeroFactor
from .matrices import TriangularMatrix
from .matrices import build_from_c  # noqa: F401  unused here; perfbench/tests checks the tracer patches it
from .rationals import format_pairs, format_rational, format_rows, parse_rational
from .serialize import matrix_from_json, matrix_to_csv, matrix_to_json, matrix_to_pbm
from .specs import FAMILIES, GPSpec
from .verify import SUITES, run_suite

# the kinds gen and export build; those whose FAMILIES row requires q read --q
KINDS = tuple(kind for kind in FAMILIES if kind not in ("from-c", "hadamard"))

# the gen usage as argparse wraps it at 80 columns on Python 3.10-3.12, written
# out because 3.13 breaks the line before --kind instead and stderr is pinned
GEN_USAGE = f"""\
%(prog)s [-h] --kind
                     {{{",".join(KINDS)}}}
                     [--q Q] [--phi PHI] [--size SIZE] [--format {{json,csv}}]
                     [--output OUTPUT]"""


def _require_q(args, minimum: int | None = 2) -> int:
    if args.q is None:
        raise ValueError(f"--kind {args.kind} requires --q")
    if minimum is not None and args.q < minimum:
        raise ValueError(f"--q must be >= {minimum}" + (f" for kind {args.kind}" if "kind" in args else ""))
    return args.q


def build_matrix(args) -> tuple[TriangularMatrix, Fraction | None]:
    """The matrix the arguments describe, and ``--phi`` as given (None when omitted)."""
    if args.size < 1:
        raise ValueError("--size must be >= 1")
    kind = args.kind
    phi = parse_rational(args.phi) if args.phi is not None else None
    if kind == "phiq" and phi is None:
        raise ValueError("--kind phiq requires --phi")
    required = FAMILIES[kind][2]
    q = _require_q(args, required["q"]) if "q" in required else None
    spec_phi = q if kind == "fractal" and phi is None else phi
    return GPSpec(kind, phi=spec_phi, q=q).materialize(args.size), phi


def _write(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


def cmd_gen(args) -> int:
    matrix, phi = build_matrix(args)
    text = matrix_to_json(matrix, args.kind, args.q, phi) if args.format == "json" else matrix_to_csv(matrix)
    _write(text, args.output)
    return 0


def cmd_eval(args) -> int:
    q = _require_q(args)
    print(format_rational(fractal.fast_gbinom_fractal(q, args.n, args.m)))
    return 0


def cmd_verify(args) -> int:
    if args.size < 1:
        raise ValueError("--size must be >= 1")
    report = run_suite(args.suite, args.size)
    print(report.to_json())
    return 0 if report.passed else 1


# the largest document decompose --input reads: on a 2-core Xeon, one of this size with
# one-character entries took 0.6 s and 130 MiB peak, and pascal at size 600 (16.7 MB) 0.4 s and 86 MiB
MAX_INPUT_BYTES = 16 * 2**20


def _read_document(path: str) -> str:
    """The text of a matrix document of at most MAX_INPUT_BYTES: a file is
    refused by its size before it is opened, a pipe once it sends more."""
    limit = f"decompose --input reads at most {MAX_INPUT_BYTES:,} bytes"
    size = os.stat(path).st_size
    if size > MAX_INPUT_BYTES:
        raise ValueError(f"the document has {size:,} bytes; {limit}")
    with open(path, encoding="utf-8") as handle:
        text = handle.read(MAX_INPUT_BYTES + 1)  # a pipe stats as 0 bytes
    if len(text) > MAX_INPUT_BYTES:
        raise ValueError(f"the document has more than {MAX_INPUT_BYTES:,} characters; {limit}")
    return text


def cmd_decompose(args) -> int:
    if args.input is not None:
        matrix = matrix_from_json(_read_document(args.input))
    elif args.kind is not None:
        matrix, _ = build_matrix(args)
    else:
        raise ValueError("decompose needs --kind or --input")
    if args.max_q is None and matrix.size < 3:
        raise ValueError(f"a matrix of size {matrix.size} is too small to decompose: it needs size >= 3")
    max_q = args.max_q if args.max_q is not None else matrix.size - 1
    if not 2 <= max_q < matrix.size:
        raise ValueError("--max-q must satisfy 2 <= max-q < size")
    # beta_q reads only the b_d with d | q, so the sieve over the whole first
    # column gives the same betas up to max_q and refuses a zero b_n past it
    pairs = special.phi_coordinates(matrix, matrix.size - 1).pairs
    moduli = range(2, max_q + 1)
    texts = format_pairs(pairs[q] for q in moduli)
    print(json.dumps(dict(zip(map(str, moduli), texts))))
    return 0


def _parse_series(text: str, q: int, degree: int) -> list[Fraction]:
    """The coefficients of a full series (at least degree + 1 of them) or of
    a base block (exactly q)."""
    coeffs = [parse_rational(part) for part in text.split(",")]
    if len(coeffs) > degree or len(coeffs) == q:
        return coeffs
    raise ValueError(
        f"series needs at least {degree + 1} coefficients, or exactly {q} for a fractal base block"
    )


def cmd_convolve(args) -> int:
    q, degree = _require_q(args), args.degree
    if degree < 0:
        raise ValueError("--degree must be >= 0")
    series = [_parse_series(args.a, q, degree), _parse_series(args.b, q, degree)]
    # a base block (q coefficients, q <= degree) stands for its fractal series, which
    # passes the check through every degree once a_0 = 1, so it is checked below q only
    a, b = (zeroalg.check_fractal(x, q, degree if len(x) > degree else q - 1) for x in series)
    den, ints = zeroalg.carryless_view(a, b, q, degree)
    print(",".join(*format_rows(den, [ints])))
    return 0


def cmd_export(args) -> int:
    matrix, _ = build_matrix(args)
    _write(matrix_to_pbm(matrix), args.output)
    return 0


def _add_matrix_args(parser: argparse.ArgumentParser, kind_required: bool = True) -> None:
    parser.add_argument("--kind", required=kind_required, choices=KINDS)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--phi", type=str, default=None, help="rational, e.g. 2 or -3/2")
    parser.add_argument("--size", type=int, default=16)


@functools.cache  # built once per process; parsing leaves it unchanged
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genpascal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a matrix document", usage=GEN_USAGE)
    _add_matrix_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("eval", help="one coefficient via the fast digit path")
    p.add_argument("--kind", required=True, choices=("fractal",))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--size", type=int, default=16)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("decompose", help="mask-weight coordinates of a matrix")
    _add_matrix_args(p, kind_required=False)
    p.add_argument("--input", default=None, help="read a JSON matrix document instead of building")
    p.add_argument("--max-q", type=int, default=None, dest="max_q")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("convolve", help="carryless product of two series")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--degree", type=int, default=15)
    p.add_argument("a", help="comma-separated rationals (full series or base block of length q)")
    p.add_argument("b", help="comma-separated rationals")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("export", help="write a PBM bitmap of the nonzero pattern")
    _add_matrix_args(p)
    p.add_argument("--format", choices=("pbm",), default="pbm")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ZeroFactor, ZeroEntry, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
