"""Pass/fail reports produced by verification routines."""

from __future__ import annotations

import json
from itertools import zip_longest
from typing import Any

from .rationals import Value


class Report(Value):
    __slots__ = ("suite", "passed", "counterexample", "checked")

    def __init__(self, suite: str, passed: bool, counterexample: dict[str, Any] | None = None, checked: int = 0):
        super().__init__(suite, passed, counterexample, checked)

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "counterexample": self.counterexample,
            "checked": self.checked,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def merge_reports(suite: str, reports: list[Report]) -> Report:
    """Combine sub-reports: pass iff all pass, first counterexample wins."""
    checked = sum(r.checked for r in reports)
    for r in reports:
        if not r.passed:
            ce = dict(r.counterexample or {})
            ce.setdefault("subsuite", r.suite)
            return Report(suite, False, ce, checked)
    return Report(suite, True, None, checked)


def check_equal(suite: str, got, want, **context: Any) -> Report:
    """Exact equality of two sequences, or of two matrices (anything with an
    ``int_view``) row by row. One check per entry of ``want``: ``len(want)``
    for a sequence, n(n+1)/2 for a matrix of size n.

    The whole objects are compared first; only on failure is the first
    differing entry located. Its counterexample is ``context`` plus ``n`` (and
    ``m`` inside a row) and both values as strings, ``None`` for an entry
    past the end of the shorter one."""
    matrix = hasattr(want, "int_view")
    checked = want.size * (want.size + 1) // 2 if matrix else len(want)
    if got == want:
        return Report(suite, True, None, checked)
    if matrix:
        pairs = (
            ({"n": n, "m": m}, x, y)
            for n, (g, w) in enumerate(zip_longest(got.rows, want.rows, fillvalue=()))
            for m, (x, y) in enumerate(zip_longest(g, w))
        )
    else:
        pairs = (({"n": n}, x, y) for n, (x, y) in enumerate(zip_longest(got, want)))
    for where, x, y in pairs:
        if x != y:
            ce = {**context, **where, "got": x if x is None else str(x), "want": y if y is None else str(y)}
            return Report(suite, False, ce, checked)
    return Report(suite, True, None, checked)  # equal entries in another container type
