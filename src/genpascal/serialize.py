"""Matrix documents: JSON, CSV and plain-bitmap (PBM P1) exports.

JSON document layout:
    {"kind": str, "q": int|null, "phi": rational-string|null,
     "size": N, "rows": [[rational-string, ...], ...]}
with row n holding n+1 entries. CSV writes one matrix row per line, entries
as rational strings, lower triangle only. PBM marks nonzero entries with '1',
zero-padded above the diagonal, one image row per matrix row. The writers
read the integer view of the matrix and the JSON/CSV readers build it, so
neither makes a Fraction per entry.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import lcm

from .matrices import TriangularMatrix
from .rationals import format_rational, format_rows, parse_rational

_WIRE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


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
    """``json.dumps(matrix_to_doc(...), indent=1)``, byte for byte. The header
    goes through json.dumps; the rows are joined directly, since their
    entries are wire rationals, ``-?digits(/digits)?``, which need no escaping."""
    doc = matrix_to_doc(matrix, kind, q, phi)
    rows, doc["rows"] = doc["rows"], []
    text = json.dumps(doc, indent=1)  # ends with '"rows": []\n}'
    if not rows:
        return text
    body = '"\n  ],\n  [\n   "'.join('",\n   "'.join(row) for row in rows)
    return f'{text[:-4]}[\n  [\n   "{body}"\n  ]\n ]\n}}'


def matrix_from_doc(doc: dict) -> TriangularMatrix:
    # shape checked per document and per row, never per entry: parse_rational rejects bad entries
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('a matrix document is a JSON object whose "rows" is a list of lists')
    matrix = _matrix_from_rows(rows)
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
    return _matrix_from_rows([line.split(",") for line in text.strip().splitlines() if line.strip()])


def _matrix_from_rows(rows: list[list]) -> TriangularMatrix:
    """The matrix of one document's entries, built as its integer view.

    The matrices repeat their values heavily (symmetry, powers of phi), so each
    distinct entry is parsed once, in first-appearance order: the first bad
    entry in row order is the one parse_rational names. Each side of a wire
    form ``-?digits(/digits)?`` with a nonzero denominator is read with int();
    every other entry goes to parse_rational, the only maker of a Fraction
    here. The rows go to from_view over the lcm of the denominators, whose
    gcd also reduces an unreduced ``3/6``.
    """
    try:
        entries = dict.fromkeys(chain.from_iterable(rows))
    except TypeError:  # an unhashable entry: parse in row order, which stops at the first bad one
        entries = chain.from_iterable(rows)
    nums: dict[str, int] = {}
    dens: dict[str, int] = {}  # the denominators of the entries that are not plain integers
    for entry in entries:
        try:  # int() refuses text past CPython's digit cap: parse_rational says so
            if type(entry) is str and entry.isascii() and entry.isdigit():
                nums[entry] = int(entry)
                continue
            if type(entry) is str and _WIRE.fullmatch(entry):
                num, _, den = entry.partition("/")
                if d := int(den or 1):  # a zero denominator is parse_rational's to name
                    nums[entry], dens[entry] = int(num), d
                    continue
        except ValueError:
            pass
        value = parse_rational(entry)
        nums[entry], dens[entry] = value.numerator, value.denominator
    den = lcm(*dens.values())
    if den > 1:
        nums = {entry: n * (den // dens.get(entry, 1)) for entry, n in nums.items()}
    # lists, not lazy maps: from_view's tuple() of a list is sized once, which keeps the peak RSS down
    return TriangularMatrix.from_view(den, [list(map(nums.__getitem__, row)) for row in rows])


_BITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)  # a zero byte to '0', any other to '1'


def matrix_to_pbm(matrix: TriangularMatrix) -> str:
    """P1 bitmap of the nonzero pattern, row n padded with zeros beyond the
    diagonal to the full width. A row whose entries all lie in 0..255 is
    read as bytes in C; any other row goes through bool once per entry."""
    size = matrix.size
    _, rows = matrix.int_view()
    pad = b"0" * size
    lines = [b"P1", b"%d %d" % (size, size)]
    for n, row in enumerate(rows):
        try:
            bits = bytes(row)
        except ValueError:  # an entry below 0 or above 255
            bits = bytes(map(bool, row))
        lines.append(bits.translate(_BITS) + pad[n + 1 :])
    return (b"\n".join(lines) + b"\n").decode("ascii")
