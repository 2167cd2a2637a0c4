"""Matrix documents: JSON, CSV and plain-bitmap (PBM P1) exports.

JSON document layout:
    {"kind": str, "q": int|null, "phi": rational-string|null,
     "size": N, "rows": [[rational-string, ...], ...]}
with row n holding n+1 entries. CSV writes one matrix row per line, entries
as rational strings, lower triangle only. PBM marks nonzero entries with '1',
zero-padded above the diagonal, one image row per matrix row. The writers
read the integer view of the matrix, so they build no Fraction per entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from .matrices import TriangularMatrix
from .rationals import format_rational, format_rows, parse_rational


def matrix_to_doc(
    matrix: TriangularMatrix,
    kind: str,
    q: int | None = None,
    phi: Fraction | None = None,
) -> dict:
    return {
        "kind": kind,
        "q": q,
        "phi": None if phi is None else format_rational(phi),
        "size": matrix.size,
        "rows": format_rows(*matrix.int_view()),
    }


def matrix_to_json(matrix: TriangularMatrix, kind: str, q=None, phi=None) -> str:
    return json.dumps(matrix_to_doc(matrix, kind, q, phi), indent=1)


def matrix_from_doc(doc: dict) -> TriangularMatrix:
    # shape checked per document and per row, never per entry: parse_rational rejects bad entries
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('a matrix document is a JSON object whose "rows" is a list of lists')
    matrix = TriangularMatrix(_parse_rows(rows))
    if matrix.size != doc.get("size", matrix.size):
        raise ValueError("size field disagrees with row count")
    return matrix


def matrix_from_json(text: str) -> TriangularMatrix:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("matrix document nests too deeply") from None
    return matrix_from_doc(doc)


def matrix_to_csv(matrix: TriangularMatrix) -> str:
    return "\n".join(map(",".join, format_rows(*matrix.int_view()))) + "\n"


def matrix_from_csv(text: str) -> TriangularMatrix:
    rows = (line.split(",") for line in text.strip().splitlines() if line.strip())
    return TriangularMatrix(_parse_rows(rows))


def _parse_rows(rows: Iterable[Iterable]) -> list[list[Fraction]]:
    """The entries of one document, each distinct string parsed once.

    The matrices repeat their values heavily (symmetry, powers of phi), so most
    entries are a dict hit. Only strings are looked up; any other entry goes
    straight to parse_rational, which rejects it with ValueError.
    """
    parsed: dict[str, Fraction] = {}

    def parse(entry) -> Fraction:
        if type(entry) is not str:
            return parse_rational(entry)
        value = parsed.get(entry)
        if value is None:
            value = parsed[entry] = parse_rational(entry)
        return value

    return [[parse(entry) for entry in row] for row in rows]


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def matrix_to_pbm(matrix: TriangularMatrix) -> str:
    """P1 bitmap of the nonzero pattern, row n padded with zeros beyond the
    diagonal to the full width."""
    size = matrix.size
    _, rows = matrix.int_view()
    zeros = bytes(size)
    lines = [b"P1", b"%d %d" % (size, size)]
    lines += [(bytes(map(bool, row)) + zeros[n + 1 :]).translate(_BITS) for n, row in enumerate(rows)]
    return (b"\n".join(lines) + b"\n").decode("ascii")
