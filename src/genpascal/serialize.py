"""Matrix documents: JSON, CSV and plain-bitmap (PBM P1) exports.

JSON document layout:
    {"kind": str, "q": int|null, "phi": rational-string|null,
     "size": N, "rows": [[rational-string, ...], ...]}
with row n holding n+1 entries. CSV writes one matrix row per line, entries
as rational strings, lower triangle only. PBM marks nonzero entries with '1',
zero-padded above the diagonal, one image row per matrix row.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .matrices import TriangularMatrix
from .rationals import format_rational, parse_rational


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
        "rows": [[format_rational(e) for e in row] for row in matrix.rows],
    }


def matrix_to_json(matrix: TriangularMatrix, kind: str, q=None, phi=None) -> str:
    return json.dumps(matrix_to_doc(matrix, kind, q, phi), indent=1)


def matrix_from_doc(doc: dict) -> TriangularMatrix:
    # shape checked per document and per row, never per entry: parse_rational rejects bad entries
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('a matrix document is a JSON object whose "rows" is a list of lists')
    rows = [[parse_rational(e) for e in row] for row in rows]
    matrix = TriangularMatrix(rows)
    if matrix.size != doc.get("size", matrix.size):
        raise ValueError("size field disagrees with row count")
    return matrix


def matrix_from_json(text: str) -> TriangularMatrix:
    return matrix_from_doc(json.loads(text))


def matrix_to_csv(matrix: TriangularMatrix) -> str:
    return "\n".join(",".join(format_rational(e) for e in row) for row in matrix.rows) + "\n"


def matrix_from_csv(text: str) -> TriangularMatrix:
    rows = [
        [parse_rational(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return TriangularMatrix(rows)


def matrix_to_pbm(matrix: TriangularMatrix) -> str:
    """P1 bitmap of the nonzero pattern, row n padded with zeros beyond the
    diagonal to the full width."""
    size = matrix.size
    lines = ["P1", f"{size} {size}"]
    for n in range(size):
        bits = ["1" if e != 0 else "0" for e in matrix.rows[n]]
        bits.extend("0" * (size - n - 1))
        lines.append("".join(bits))
    return "\n".join(lines) + "\n"
