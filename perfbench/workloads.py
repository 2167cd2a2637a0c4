"""The four request mixes and the checks on their outputs.

A workload is built from a seeded ``random.Random`` and hands out its requests
one round at a time. Each round holds the same request templates in a seeded
order. Parameters that set a request's cost (sizes, bases q, |phi|) are fixed;
the seed draws only values that leave the cost unchanged (signs, indices,
random rationals), so every seed does the same amount of work and runs with
different seeds can be compared. Requests go through
``genpascal.cli.main(argv)`` or through library functions looked up on the
package at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import genpascal
import genpascal.cli

import oracles


@dataclass
class Op:
    """One request: ``run`` is the timed call, ``check`` the oracle applied to
    its result outside the timed region. Requests with equal ``key`` must give
    equal output, so a repeat is checked by digest; ``key=None`` never repeats.
    ``checked`` is the number of identity checks a verify request must report."""

    key: tuple | None
    run: Callable[[], object]
    check: Callable[[object], bool]
    checked: int = 0


class Cycler:
    """Draws from a seeded deck that is reshuffled when empty, so each item
    turns up in the same share of draws whatever the seed."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.deck: list = []

    def __call__(self):
        if not self.deck:
            self.deck = self.items[:]
            self.rng.shuffle(self.deck)
        return self.deck.pop()


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = genpascal.cli.main(argv)
    return rc, out.getvalue()


def cli_op(argv: list[str], check_text: Callable[[str], bool], checked: int = 0) -> Op:
    def check(result) -> bool:
        rc, text = result
        return rc == 0 and check_text(text)

    return Op(tuple(argv), lambda: call_cli(argv), check, checked)


# --- generate --------------------------------------------------------------

def expected_matrix_text(fmt: str, kind: str, q, phi: str | None, size: int) -> object:
    """The document a gen/export request must print: the parsed JSON object
    for json, the exact text for csv and pbm."""
    entry = oracles.matrix_entries(kind, q, None if phi is None else Fraction(phi), size)
    rows = [[str(entry(n, m)) for m in range(n + 1)] for n in range(size)]
    if fmt == "json":
        return {
            "kind": kind,
            "q": q,
            "phi": None if phi is None else str(Fraction(phi)),
            "size": size,
            "rows": rows,
        }
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    lines = ["P1", f"{size} {size}"]
    lines += ["".join("0" if e == "0" else "1" for e in row) + "0" * (size - n - 1) for n, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


# (command, format, kind, size, q, |phi|) of the requests every round makes.
# q and phi are fixed per request, not drawn per seed, because the cost of a
# request moves with them by up to 3x (a fractal csv of size 112 takes 2.5x
# longer with q=2, phi=2 than with q=2, phi=0): a seed that drew them would
# change the work. Every kind is asked for a json, a csv and a pbm document,
# and the q-umbral kinds stay at 64 or below because their entries grow as
# q**(n*n). A 25th request makes the count odd: the pooled median then lies
# in the middle of one request's latencies, not between two requests whose
# latencies differ by 10% (which moved it by that much from run to run).
REQUESTS = [
    ("gen", "json", "pascal", 40, None, None),
    ("gen", "csv", "pascal", 112, None, None),
    ("export", "pbm", "pascal", 224, None, None),
    ("gen", "json", "ones", 64, None, None),
    ("gen", "csv", "ones", 136, None, None),
    ("export", "pbm", "ones", 512, None, None),
    ("gen", "json", "phiq", 64, 5, "3/2"),
    ("gen", "csv", "phiq", 160, 3, "2"),
    ("export", "pbm", "phiq", 448, 2, "0"),
    ("gen", "json", "fractal", 40, 3, "2"),
    ("gen", "csv", "fractal", 112, 5, "3/2"),
    ("export", "pbm", "fractal", 240, 3, "0"),
    ("gen", "json", "zero-overlay", 32, 3, None),
    ("gen", "csv", "zero-overlay", 88, 2, None),
    ("export", "pbm", "zero-overlay", 176, 5, None),
    ("gen", "json", "tmatrix", 56, 5, None),
    ("gen", "csv", "tmatrix", 112, 2, None),
    ("export", "pbm", "tmatrix", 272, 3, None),
    ("gen", "json", "qumbral", 44, 2, None),
    ("gen", "csv", "qumbral", 32, 3, None),
    ("export", "pbm", "qumbral", 40, 2, None),
    ("gen", "json", "qumbral-inverse", 64, 3, None),
    ("gen", "csv", "qumbral-inverse", 48, -1, None),
    ("export", "pbm", "qumbral-inverse", 64, -1, None),
    ("gen", "json", "pascal", 80, None, None),
]


class Generate:
    """gen (json, csv) and export pbm over all eight kinds, sizes 32 to 512.
    Every round makes the same requests; the seed sets the sign of each
    nonzero phi, which leaves the cost unchanged, and the order."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.ops = [
            self.request(command, fmt, kind, size, q, phi if phi in (None, "0") else rng.choice(["", "-"]) + phi)
            for command, fmt, kind, size, q, phi in REQUESTS
        ]

    def request(self, command: str, fmt: str, kind: str, size: int, q: int | None, phi: str | None) -> Op:
        argv = [command, "--kind", kind, "--size", str(size)]
        if q is not None:
            argv += ["--q", str(q)]
        if phi is not None:
            argv.append(f"--phi={phi}")
        argv += ["--format", fmt]

        def check_text(text: str) -> bool:
            expected = expected_matrix_text(fmt, kind, q, phi, size)
            return (json.loads(text) if fmt == "json" else text) == expected

        return cli_op(argv, check_text)

    def round(self) -> list[Op]:
        ops = self.ops[:]
        self.rng.shuffle(ops)
        return ops


# --- verify ----------------------------------------------------------------

# Three sizes per suite and round, each request taking tens to a few hundred
# ms on a 2-core Xeon. The sizes are fixed, not drawn per seed: one step in
# size changes the work of a suite by up to 30% (primes 47 against 49), so a
# seeded size would change the work.
SUITE_SIZES = {
    "identities": (10, 12, 13),
    "lucas": (48, 64, 80),
    "primes": (48, 64, 80),
    "kron": (70, 90, 140),
    "recurrences": (18, 24, 31),
    "umbral": (14, 18, 22),
    "convolution": (13, 18, 23),
    "decompose-roundtrip": (10, 12, 14),
}


def expected_checked(suite: str, size: int) -> int:
    """Number of checks a passing suite reports at ``size``."""
    entries = size * (size + 1) // 2
    if suite == "identities":
        # column 0, symmetry, and the shift identity over shifts p < q, per golden matrix
        shifts = sum((n + 1) * comb(size - n, 2) for n in range(size))
        return 12 * (size + entries + shifts)
    if suite == "lucas":
        return entries + 2 * 2 * entries
    if suite == "primes":
        return entries
    if suite == "kron":
        total = 0
        for q in (2, 3):
            k = 1
            while q ** (k + 1) <= size:
                block = q ** (k + 1)
                total += block * (block + 1)
                k += 1
        return total
    if suite == "recurrences":
        return 3 * 2 * size
    if suite == "umbral":
        return 6 * entries
    if suite == "convolution":
        return 2 * 6 * (entries + size)
    if suite == "decompose-roundtrip":
        return 21 * entries
    raise ValueError(f"no expected count for suite {suite!r}")


class Verify:
    """verify --suite S --size N over all eight suites, each sized so one
    request takes tens to a few hundred milliseconds. Every round makes the
    same requests; the seed sets their order."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.ops = [self.request(suite, size) for suite, sizes in SUITE_SIZES.items() for size in sizes]

    def request(self, suite: str, size: int) -> Op:
        want = expected_checked(suite, size)

        def check_text(text: str) -> bool:
            report = json.loads(text)
            return report == {"suite": suite, "pass": True, "counterexample": None, "checked": want}

        return cli_op(["verify", "--suite", suite, "--size", str(size)], check_text, want)

    def round(self) -> list[Op]:
        ops = self.ops[:]
        self.rng.shuffle(ops)
        return ops


# --- lookup ----------------------------------------------------------------

PRIMES_BELOW_128 = [p for p in range(2, 128) if all(p % d for d in range(2, p))]
BIG = 10**12


class Lookup:
    """Batches of point queries that never build a matrix: the digit fast
    paths at indices up to 10**12, GPSpec.entry on specs whose memos were
    filled in set-up, and gbinom on reused weight sequences; a minority of
    CLI eval and convolve requests.

    Every batch holds the same mix of queries, sized so that a batch and an
    eval cost about the same, and a convolve about three times as much. The
    convolves are a fifth of the ops, so the median falls inside the cluster
    of batches and evals and the 90th percentile in the middle of the
    convolves, not in the sparse tail of a cluster, where the host's short
    slow spells move it. The seed draws the indices, the explicit c-sequence,
    the convolve blocks and the signs of phi; the bases q are fixed, because
    a query's cost moves with the number of base-q digits of its indices."""

    SCALAR_PER_Q = 5
    SPEC_QUERIES = 5
    GBINOM_PER_WEIGHT = 7
    CONVOLVE_DEGREE = 63
    BATCHES = 14

    def __init__(self, rng: random.Random, workdir: Path):
        gp = genpascal
        self.rng = rng
        fractal_phi = Fraction(rng.choice([3, -3]), 2)
        phiq_phi = Fraction(rng.choice([5, -5]), 3)
        c_values = [Fraction(1), Fraction(1)] + [
            Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9)) for _ in range(510)
        ]
        # (spec, index bound, oracle); the from-c memos are filled here, outside timing
        self.specs = [
            (gp.GPSpec.fractal(fractal_phi, 3), BIG, lambda n, m: oracles.fractal_value(fractal_phi, 3, n, m)),
            (gp.GPSpec.phiq(phiq_phi, 3), BIG, lambda n, m: 1 if n % 3 >= m % 3 else phiq_phi),
            (gp.GPSpec.tmatrix(4), BIG, lambda n, m: oracles.digit_comb(4, n, m)),
            (gp.GPSpec.from_c(gp.CSequence.exponential()), 512, comb),
            (
                gp.GPSpec.from_c(gp.CSequence.explicit(c_values)),
                512,
                lambda n, m: c_values[m] * c_values[n - m] / c_values[n],
            ),
            (gp.GPSpec.hadamard([gp.GPSpec.fractal(p, p) for p in PRIMES_BELOW_128]), 128, comb),
        ]
        for spec, bound, _ in self.specs:
            if spec.c is not None:
                for n in range(bound):
                    spec.c[n]
        self.weights = [
            (gp.BSequence.naturals(), comb),
            (gp.BSequence.fractal(2, 2), lambda n, m: Fraction(2) ** oracles.borrows(2, n, m)),
            (gp.BSequence.fractal(3, 3), lambda n, m: Fraction(3) ** oracles.borrows(3, n, m)),
        ]
        for b, _ in self.weights:
            b.factorial(511)
        self.eval_q = Cycler(rng, [2, 3, 5, 7])
        self.convolve_q = Cycler(rng, [2, 3, 4])

    def _pair(self, bound: int) -> tuple[int, int]:
        n = self.rng.randrange(bound)
        return n, self.rng.randrange(n + 1)

    def batch(self) -> Op:
        scalars = [(q, *self._pair(BIG)) for q in (2, 3, 5, 7) for _ in range(self.SCALAR_PER_Q)]
        specs = [
            (spec, *self._pair(bound), oracle) for spec, bound, oracle in self.specs for _ in range(self.SPEC_QUERIES)
        ]
        gbinoms = [(b, oracle, *self._pair(512)) for b, oracle in self.weights for _ in range(self.GBINOM_PER_WEIGHT)]

        def run():
            gp = genpascal
            return [
                [
                    (
                        gp.fast_gbinom_fractal(q, n, m),
                        gp.digit_binom(q, n, m),
                        gp.t_coefficient(q, n, m),
                        gp.carry_count(q, n, m),
                    )
                    for q, n, m in scalars
                ],
                [spec.entry(n, m) for spec, n, m, _ in specs],
                [gp.gbinom(b, n, m) for b, _, n, m in gbinoms],
            ]

        def check(result) -> bool:
            expected_scalars = []
            for q, n, m in scalars:
                carries = oracles.borrows(q, n, m)
                expected_scalars.append((q**carries, oracles.dominates(q, n, m), oracles.digit_comb(q, n, m), carries))
            return result == [
                expected_scalars,
                [oracle(n, m) for _, n, m, oracle in specs],
                [oracle(n, m) for _, oracle, n, m in gbinoms],
            ]

        return Op(None, run, check)

    def eval_request(self) -> Op:
        q = self.eval_q()
        n, m = self._pair(BIG)
        want = f"{q ** oracles.borrows(q, n, m)}\n"
        argv = ["eval", "--kind", "fractal", "--q", str(q), str(n), str(m)]
        return cli_op(argv, lambda text: text == want)

    def convolve_request(self) -> Op:
        q = self.convolve_q()
        blocks = [
            [Fraction(1)] + [Fraction(self.rng.randint(-5, 5), self.rng.randint(1, 4)) for _ in range(q - 1)]
            for _ in range(2)
        ]
        a, b = (oracles.digit_series(block, q, self.CONVOLVE_DEGREE) for block in blocks)
        want = ",".join(str(x) for x in oracles.masked_product(a, b, q, self.CONVOLVE_DEGREE)) + "\n"
        argv = ["convolve", "--q", str(q), "--degree", str(self.CONVOLVE_DEGREE)]
        argv += [",".join(str(x) for x in block) for block in blocks]
        return cli_op(argv, lambda text: text == want)

    def round(self) -> list[Op]:
        ops = [self.batch() for _ in range(self.BATCHES)]
        ops += [self.eval_request() for _ in range(2)] + [self.convolve_request() for _ in range(4)]
        self.rng.shuffle(ops)
        return ops


# --- ingest ----------------------------------------------------------------

# (family, size, q, |phi|) of the seventeen documents: five small ones spread
# over 32-64, seven near 128 and five near 240. The median then falls in the
# middle of the seven and the 90th percentile in the middle of the five, not
# at the edge of a group, where it moved by 7% from run to run. q and phi are fixed per
# document, not drawn per seed, because they set the size of the entries and
# so the cost of reading and decomposing the document (a phiq document of
# size 124 takes 1.6x longer with one draw than with another).
DOCUMENTS = [
    ("random-c", 32, None, None),
    ("pascal", 40, None, None),
    ("fractal", 48, 2, "3/2"),
    ("phiq", 56, 3, "2"),
    ("random-c", 64, None, None),
    ("fractal", 120, 3, "2"),
    ("phiq", 124, 4, "5/3"),
    ("random-c", 128, None, None),
    ("pascal", 128, None, None),
    ("fractal", 132, 4, "7/3"),
    ("phiq", 136, 5, "3/2"),
    ("random-c", 124, None, None),
    ("pascal", 232, None, None),
    ("random-c", 240, None, None),
    ("pascal", 244, None, None),
    ("fractal", 248, 5, "3/2"),
    ("phiq", 256, 2, "7/3"),
]


class Ingest:
    """decompose --input on nonzero generalized Pascal documents (random
    rational c-sequences, pascal, fractal and phiq with nonzero weight) of
    sizes 32 to 256, written in set-up by benchmark code. The seed draws the
    c-sequences, the signs of phi and the order."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for i, (family, size, q, phi) in enumerate(DOCUMENTS):
            path = workdir / f"doc-{i:02d}.json"
            weight = None if phi is None else Fraction(phi) * rng.choice([1, -1])
            column = self.write_document(path, family, size, q, weight)
            self.ops.append(self.request(str(path), column))

    def write_document(self, path: Path, family: str, size: int, q: int | None, phi: Fraction | None) -> list[Fraction]:
        """Write one matrix document and return its first column b_n = (n, 1)."""
        rng = self.rng
        if family == "random-c":
            c = [Fraction(1), Fraction(1)] + [
                Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9)) for _ in range(size - 2)
            ]
            entry = lambda n, m: c[m] * c[n - m] / c[n]  # noqa: E731
        elif family == "pascal":
            entry = comb
        elif family == "fractal":
            entry = lambda n, m: oracles.fractal_value(phi, q, n, m)  # noqa: E731
        else:
            entry = lambda n, m: 1 if n % q >= m % q else phi  # noqa: E731
        rows = [[entry(n, m) for m in range(n + 1)] for n in range(size)]
        doc = {"kind": family, "q": None, "phi": None, "size": size}
        doc["rows"] = [[str(e) for e in row] for row in rows]
        path.write_text(json.dumps(doc, indent=1), encoding="ascii")
        return [Fraction(0)] + [Fraction(rows[n][1]) for n in range(1, size)]

    def request(self, path: str, column: list[Fraction]) -> Op:
        size = len(column)

        def check_text(text: str) -> bool:
            betas = {int(k): Fraction(v) for k, v in json.loads(text).items()}
            if sorted(betas) != list(range(2, size)):
                return False
            return all(oracles.divisor_product(betas, n) == column[n] for n in range(1, size))

        return cli_op(["decompose", "--input", path], check_text)

    def round(self) -> list[Op]:
        ops = self.ops[:]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {"generate": Generate, "verify": Verify, "lookup": Lookup, "ingest": Ingest}
