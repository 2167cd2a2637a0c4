"""Matrix documents: JSON, CSV and plain-bitmap (PBM P1) exports.

JSON document layout:
    {"kind": str, "q": int|null, "phi": rational-string|null,
     "size": N, "rows": [[rational-string, ...], ...]}
with row n holding n+1 entries. CSV writes one matrix row per line, entries
as rational strings, lower triangle only. PBM marks nonzero entries with '1',
zero-padded above the diagonal, one image row per matrix row; its rows are
the ones a spec draws from its family's zero pattern (``GPSpec.bitmap``), with
no entry built. The JSON and CSV writers read the integer view of the matrix
and the JSON reader builds it, so none of them makes a Fraction per entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import floordiv, mul

from .matrices import TriangularMatrix
from .rationals import format_rational, format_rows, parse_rational, to_view


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
    if not matrix.size:
        return "\n"
    # the empty last element ends the text with "\n" in the one join, with no copy of the whole text
    return "\n".join([*map(",".join, format_rows(*matrix.int_view())), ""])


def _matrix_from_rows(rows: list[list]) -> TriangularMatrix:
    """The matrix of one document's entries, built as its integer view.

    The matrices repeat their values heavily (symmetry, powers of phi), so each
    distinct entry is read once, in first-appearance order. When every
    distinct entry is a str in wire form ``-?digits(/digits)?`` (ASCII digits,
    nonzero denominator), _wire_view checks their joined text a MiB at a time and
    reads them with int(); no Fraction is made. Otherwise every distinct
    entry goes to parse_rational, one at a time in first-appearance order, so
    the first bad entry in row order is the one it names; so does a wire
    entry past CPython's int-text digit cap. The rows go to from_view over
    the lcm of the denominators, whose gcd also reduces an unreduced ``3/6``.
    """
    try:
        entries = dict.fromkeys(chain.from_iterable(rows))
    except TypeError:  # an unhashable entry, which is no str: parse_rational refuses it or an earlier one
        entries = list(chain.from_iterable(rows))
    den, ints = _wire_view(entries) or to_view(map(parse_rational, entries))
    entries.update(zip(entries, ints))  # each distinct entry to its numerator over den; no key is added
    # lists, not lazy maps: from_view's tuple() of a list is sized once, which keeps the peak RSS down
    return TriangularMatrix.from_view(den, [list(map(entries.__getitem__, row)) for row in rows])


def _wire_view(entries) -> tuple[int, list[int]] | None:
    """(den, ints) with ints[k] = den * entries[k] over the lcm den of their
    denominators, when every entry is wire text; else None.

    The entries joined by ',' must be ASCII. C-level passes over each MiB of
    that text drop the commas and the digits and '-'; anything left but '/'
    is a character that no wire entry has. Of the strings made of digits,
    '-', '/' and ',', int() reads exactly ``-?digits``: each side of a '/'
    goes through it, and a denominator must come out >= 1."""
    try:
        text = ",".join(entries)
    except TypeError:  # an entry that is not a str
        return None
    if not text.isascii():
        return None
    mib = 1 << 20  # a slice of text at a time is encoded, so its bytes are never held whole next to it
    slashes = b"".join(text[k : k + mib].encode().translate(None, b"0123456789-,") for k in range(0, len(text), mib))
    del text  # before the ints below
    if slashes.strip(b"/"):
        return None
    try:  # int() refuses text past CPython's digit cap too: parse_rational says so
        if not slashes:
            return 1, list(map(int, entries))
        parts = [entry.partition("/") for entry in entries]
        nums = list(map(int, [num for num, _, _ in parts]))
        dens = [int(den) if slash else 1 for _, slash, den in parts]
        del parts  # before the products below, so the two are never held at once
    except ValueError:
        return None
    if min(dens) < 1:  # a zero or signed denominator
        return None
    den = lcm(*dens)
    return den, list(map(mul, nums, map(floordiv, repeat(den), dens)))


def matrix_to_pbm(rows: list[bytes]) -> str:
    """P1 bitmap of the PBM rows that ``GPSpec.bitmap`` draws, one image row per matrix row."""
    size = len(rows)
    return b"\n".join([b"P1", b"%d %d" % (size, size), *rows, b""]).decode("ascii")
