"""Timing wrappers installed around genpascal's public functions.

``Tracer.install`` replaces every binding of each target function object in
the loaded ``genpascal`` modules and their classes (names brought in with
``from .x import y`` included) by a wrapper, and ``uninstall`` puts the
originals back. A timed wrapper records a span (name, start, end, parent span,
op id) in in-memory columns; a counted wrapper, used for the hottest scalar
helpers listed in ``manifest.json``, only counts calls. Self time is a span's
duration minus the time its child spans cover; the time of a counted helper
therefore stays in its caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# layer label -> "module:attribute path" of every function the label covers
TARGETS = {
    "cli.main": ["cli:main"],
    "serialize.matrix_to_json": ["serialize:matrix_to_json"],
    "serialize.matrix_to_csv": ["serialize:matrix_to_csv"],
    "serialize.matrix_to_pbm": ["serialize:matrix_to_pbm"],
    "serialize.matrix_from_json": ["serialize:matrix_from_json"],
    "rationals.format_rational": ["rationals:format_rational"],
    "rationals.parse_rational": ["rationals:parse_rational"],
    "matrices.TriangularMatrix": ["matrices:TriangularMatrix.__init__"],
    "matrices.eq": ["matrices:TriangularMatrix.__eq__"],
    "matrices.build_from_c": ["matrices:build_from_c"],
    "matrices.hadamard": ["matrices:hadamard"],
    "matrices.matmul": ["matrices:matmul"],
    "matrices.identity_check": ["matrices:identity_check"],
    "matrices.gbinom": ["matrices:gbinom"],
    "sequences.getitem": ["sequences:BSequence.__getitem__", "sequences:CSequence.__getitem__"],
    "sequences.factorial": ["sequences:BSequence.factorial"],
    "digits.digits": ["digits:digits"],
    "digits.valuation": ["digits:valuation"],
    "polynomials.mul": ["polynomials:Polynomial.__mul__"],
    "polynomials.mul_trunc": ["polynomials:mul_trunc"],
    "polynomials.substitute_power": ["polynomials:Polynomial.substitute_power"],
    "fractal.fast_gbinom_fractal": ["fractal:fast_gbinom_fractal"],
    "fractal.fractal_entry": ["fractal:fractal_entry"],
    "fractal.carry_count": ["fractal:carry_count"],
    "fractal.fractal_matrix": ["fractal:fractal_matrix"],
    "fractal.recurrences": ["fractal:fractal_row", "fractal:fractal_column"],
    "fractal.pascal_prime_factorization": ["fractal:pascal_prime_factorization"],
    "zeroalg.digit_binom": ["zeroalg:digit_binom"],
    "zeroalg.t_coefficient": ["zeroalg:t_coefficient"],
    "zeroalg.masked_matrix": ["zeroalg:masked_matrix"],
    "zeroalg.t_matrix": ["zeroalg:t_matrix"],
    "zeroalg.kronecker": ["zeroalg:kronecker"],
    "zeroalg.carryless_convolve": ["zeroalg:carryless_convolve"],
    "special.phi_q_matrix": ["special:phi_q_matrix"],
    "special.q_umbral": ["special:q_umbral_matrix", "special:q_umbral_inverse"],
    "special.zero_overlay_matrix": ["special:zero_overlay_matrix"],
    "special.phi_coordinates": ["special:phi_coordinates"],
    "special.recompose": ["special:PhiCoordinates.recompose"],
    "specs.GPSpec.entry": ["specs:GPSpec.entry"],
    "verify.run_suite": ["verify:run_suite"],
}

MANIFEST = Path(__file__).parent / "manifest.json"
OP_SPAN = "op"


def resolve(target: str):
    module_name, path = target.split(":")
    obj = sys.modules[f"genpascal.{module_name}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(original):
    """Every (namespace, name) in the genpascal modules and in the classes
    they define that is bound to ``original``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "genpascal" and not module_name.startswith("genpascal."):
            continue
        for name, value in vars(module).items():
            if value is original:
                found.append((module, name))
            if isinstance(value, type) and value.__module__.startswith("genpascal"):
                found += [(value, attr) for attr, member in vars(value).items() if member is original]
    return list(dict.fromkeys(found))


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.current_op = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.patches: list[tuple[object, str, object, object]] = []
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        self.counted_labels = frozenset(manifest["counted_helpers"])

    # --- recording -------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        """Open the root span of op ``op_id``; its self time is harness time."""
        self.current_op[0] = op_id
        idx = len(self.start)
        self.name_of.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end_op(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def timed(self, label: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(label)
        name_of, start, end, parent, op = self.name_of, self.start, self.end, self.parent, self.op
        stack, current_op, clock = self.stack, self.current_op, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            op.append(current_op[0])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, label: str, fn, before=None, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def hooks(self, label: str):
        """(before, after) callbacks that feed the size and memo counters."""
        counts = self.counts

        def add(key: str, amount: int) -> None:
            counts[key] += amount

        if label == "matrices.TriangularMatrix":
            return None, lambda args, _: add(f"{label}.entries", len(args[0].rows) * (len(args[0].rows) + 1) // 2)
        if label.startswith("serialize.matrix_to_"):
            return None, lambda _, text: add("serialize.bytes_out", len(text))
        if label == "serialize.matrix_from_json":
            return None, lambda args, _: add("serialize.bytes_in", len(args[0]))
        if label in ("sequences.getitem", "sequences.factorial"):
            memo = "_values" if label == "sequences.getitem" else "_factorials"

            def probe(args) -> None:
                add("sequences.memo_lookups", 1)
                add("sequences.memo_hits", args[1] in getattr(args[0], memo))

            return probe, None
        return None, None

    # --- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Patch every binding of every target; the wrappers are built on the
        first call and reused, so installing again is cheap."""
        if not self.patches:
            import genpascal  # noqa: F401  (loads every submodule)

            for label, targets in TARGETS.items():
                for target in targets:
                    original = resolve(target)
                    wrap = self.counted if label in self.counted_labels else self.timed
                    wrapper = wrap(label, original, *self.hooks(label))
                    self.patches += [(space, name, original, wrapper) for space, name in bindings(original)]
        for namespace, name, _, wrapper in self.patches:
            setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original, _ in reversed(self.patches):
            setattr(namespace, name, original)

    # --- results ---------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span in nanoseconds."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per timed label, calls per counted label, and the
        size and memo counters."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for name_id, own in zip(self.name_of, self.self_times()):
            label = self.names[name_id]
            calls[label] += 1
            self_ns[label] += own
        metrics: dict[str, float] = {}
        for label in TARGETS:
            if label in self.counted_labels:
                metrics[f"{label}.calls"] = self.counts[label]
            else:
                metrics[f"{label}.calls"] = calls[label]
                metrics[f"{label}.self_s"] = self_ns[label] / 1e9
        for key in ("matrices.TriangularMatrix.entries", "serialize.bytes_out", "serialize.bytes_in"):
            metrics[key] = self.counts[key]
        lookups = self.counts["sequences.memo_lookups"]
        metrics["sequences.memo_hit_ratio"] = self.counts["sequences.memo_hits"] / lookups if lookups else 0.0
        return metrics

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the int64 columns."""
        columns = ("name_of", "start", "end", "parent", "op")
        header = {"names": self.names, "count": len(self.start), "columns": columns, "unit": "ns"}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            for column in columns:
                getattr(self, column).tofile(handle)


def load_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read back a file written by ``Tracer.dump``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column in header["columns"]:
            values = array("q")
            values.fromfile(handle, header["count"])
            columns[column] = values
    return header, columns
