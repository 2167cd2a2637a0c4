"""Command line interface.

Subcommands: ``gen`` (write a matrix document), ``eval`` (one coefficient via
the fast digit path), ``verify`` (run a named suite, exit 0 iff it passes),
``decompose`` (mask-weight coordinates as JSON), ``convolve`` (carryless
product series) and ``export`` (PBM bitmap). Exit codes: 0 success, 1 failed
verification, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf

from . import fractal, special, zeroalg
from .errors import ZeroEntry, ZeroFactor
from .matrices import TriangularMatrix
from .matrices import build_from_c  # noqa: F401  unused here; perfbench/tests checks the tracer patches it
from .rationals import format_rational, parse_rational
from .serialize import matrix_from_json, matrix_to_csv, matrix_to_json, matrix_to_pbm
from .specs import GPSpec
from .verify import SUITES, run_suite

# lower bound on --q per kind: None when the kind reads no --q, -inf for any integer
Q_MIN = {
    "pascal": None, "ones": None, "phiq": 2, "fractal": 2,
    "qumbral": -inf, "qumbral-inverse": -inf, "zero-overlay": 2, "tmatrix": 2,
}
KINDS = tuple(Q_MIN)


class ConfigError(Exception):
    pass


def _require_q(args, minimum: float = 2) -> int:
    if args.q is None:
        raise ConfigError(f"--kind {args.kind} requires --q")
    if args.q < minimum:
        raise ConfigError(f"--q must be >= {minimum} for kind {args.kind}")
    return args.q


def build_matrix(args) -> TriangularMatrix:
    if args.size < 1:
        raise ConfigError("--size must be >= 1")
    kind = args.kind
    phi = parse_rational(args.phi) if args.phi is not None else None
    if kind == "phiq" and phi is None:
        raise ConfigError("--kind phiq requires --phi")
    q = None if Q_MIN[kind] is None else _require_q(args, Q_MIN[kind])
    if kind == "fractal" and phi is None:
        phi = Fraction(q)
    return GPSpec(kind, phi=phi, q=q).materialize(args.size)


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)


def cmd_gen(args) -> int:
    matrix = build_matrix(args)
    phi = parse_rational(args.phi) if args.phi is not None else None
    if args.format == "json":
        text = matrix_to_json(matrix, args.kind, args.q, phi)
    elif args.format == "csv":
        text = matrix_to_csv(matrix)
    else:
        raise ConfigError("gen supports --format json or csv")
    _write(text, args.output)
    return 0


def cmd_eval(args) -> int:
    if args.kind != "fractal":
        raise ConfigError("eval supports --kind fractal only")
    q = _require_q(args)
    if args.m > args.n:
        print("0")
        return 0
    print(format_rational(fractal.fast_gbinom_fractal(q, args.n, args.m)))
    return 0


def cmd_verify(args) -> int:
    if args.size < 1:
        raise ConfigError("--size must be >= 1")
    try:
        report = run_suite(args.suite, args.size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_decompose(args) -> int:
    if args.input is not None:
        with open(args.input, encoding="ascii") as handle:
            matrix = matrix_from_json(handle.read())
    elif args.kind is not None:
        matrix = build_matrix(args)
    else:
        raise ConfigError("decompose needs --kind or --input")
    max_q = args.max_q if args.max_q is not None else matrix.size - 1
    if not 2 <= max_q < matrix.size:
        raise ConfigError("--max-q must satisfy 2 <= max-q < size")
    coords = special.phi_coordinates(matrix, max_q)
    print(json.dumps({str(q): format_rational(beta) for q, beta in sorted(coords.betas.items())}))
    return 0


def _parse_series(text: str, q: int, degree: int) -> list[Fraction]:
    coeffs = [parse_rational(part) for part in text.split(",")]
    if len(coeffs) >= degree + 1:
        return coeffs
    if len(coeffs) == q:
        # base block: extend by the digit-multiplicative rule a_{qn+i} = a_n a_i
        out = list(coeffs)
        for n in range(q, degree + 1):
            out.append(out[n // q] * out[n % q])
        return out
    raise ConfigError(
        f"series needs at least {degree + 1} coefficients, or exactly {q} for a fractal base block"
    )


def cmd_convolve(args) -> int:
    q = _require_q(args)
    if args.degree < 0:
        raise ConfigError("--degree must be >= 0")
    a = _parse_series(args.a, q, args.degree)
    b = _parse_series(args.b, q, args.degree)
    result = zeroalg.carryless_convolve(a, b, q, args.degree)
    print(",".join(format_rational(x) for x in result))
    return 0


def cmd_export(args) -> int:
    if args.format != "pbm":
        raise ConfigError("export supports --format pbm")
    matrix = build_matrix(args)
    _write(matrix_to_pbm(matrix), args.output)
    return 0


def _add_matrix_args(parser: argparse.ArgumentParser, kind_required: bool = True) -> None:
    parser.add_argument("--kind", required=kind_required, choices=KINDS)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--phi", type=str, default=None, help="rational, e.g. 2 or -3/2")
    parser.add_argument("--size", type=int, default=16)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genpascal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a matrix document")
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
    except (ConfigError, ZeroFactor, ZeroEntry, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
