"""The closed loop that drives a workload, plain or traced.

One client sends the next request only after the previous one returned.
Only the call into genpascal is timed; digests and oracle checks run between
calls, outside the timed region, and a failed call or a wrong output counts
the op as failed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

import speed
from tracer import Tracer
from workloads import Op

MIN_OPS = 100


@dataclass
class Result:
    """What a run keeps per op is one int64, so the benchmark's own memory
    does not grow with the number of ops and peak_rss_mib measures the
    program; ``outputs`` hashes the digests of all timed outputs in order and
    ``warmup`` counts the ops of the warm-up round, checked but not timed.
    ``samples`` holds the reference kernel samples of a timed run as pairs
    (number of ops timed before it, sample ns)."""

    rounds: list[array] = field(default_factory=list)
    samples: list[tuple[int, int]] = field(default_factory=list)
    warmup: int = 0
    failed: int = 0
    outputs: object = field(default_factory=hashlib.sha256)
    checked: int = 0
    verify_ns: int = 0
    peak_rss_mib: float = 0.0

    @property
    def attempted(self) -> int:
        return self.warmup + sum(map(len, self.rounds))


def execute(op: Op) -> tuple[bool, object, int]:
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except (Exception, SystemExit) as exc:  # a crash or argparse exit is a failed op, not a benchmark error
        return False, repr(exc), time.perf_counter_ns() - start
    return True, result, time.perf_counter_ns() - start


def digest(output: object) -> str:
    """sha256 of a CLI call's exit code and stdout, or of a library result's repr."""
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
        rc, text = output
        return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()
    return hashlib.sha256(repr(output).encode()).hexdigest()


class Checker:
    """Applies each op's oracle once per distinct request; a repeated request
    must reproduce the digest of the output that passed."""

    def __init__(self):
        self.passed: dict[tuple, str] = {}

    def __call__(self, op: Op, ran: bool, result: object, result_digest: str) -> bool:
        if not ran:
            return False
        if op.key is not None and op.key in self.passed:
            return self.passed[op.key] == result_digest
        try:
            ok = bool(op.check(result))
        except Exception:  # malformed output, e.g. unparsable JSON
            ok = False
        if ok and op.key is not None:
            self.passed[op.key] = result_digest
        return ok


def record(result: Result, op: Op, ok: bool, elapsed_ns: int, result_digest: str) -> None:
    result.rounds[-1].append(elapsed_ns)
    result.outputs.update(result_digest.encode())
    result.failed += not ok
    if ok and op.checked:
        result.checked += op.checked
        result.verify_ns += elapsed_ns


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_timed(workload, seconds: float, min_ops: int = MIN_OPS, warmup: bool = True) -> Result:
    """Run one warm-up round, whose ops are checked but not timed, then whole
    rounds until ``seconds`` of wall time, calls and checks together, have
    passed and at least ``min_ops`` ops were timed. A reference kernel sample
    is taken before the first timed op, then at most every
    speed.SAMPLE_EVERY_NS between ops, and after the last one."""
    result, check = Result(), Checker()
    if warmup:
        for op in workload.round():
            ran, output, _ = execute(op)
            result.warmup += 1
            result.failed += not check(op, ran, output, digest(output))
    deadline = time.perf_counter() + seconds
    attempted = next_sample = 0
    while time.perf_counter() < deadline or attempted < min_ops:
        result.rounds.append(array("q"))
        for op in workload.round():
            if time.perf_counter_ns() >= next_sample:
                result.samples.append((attempted, speed.sample_ns()))
                next_sample = time.perf_counter_ns() + speed.SAMPLE_EVERY_NS
            ran, output, elapsed = execute(op)
            result_digest = digest(output)
            record(result, op, check(op, ran, output, result_digest), elapsed, result_digest)
            attempted += 1
    result.samples.append((attempted, speed.sample_ns()))
    result.peak_rss_mib = peak_rss_mib()
    return result


def execute_traced(op: Op, op_id: int, tracer: Tracer) -> tuple[bool, object, int]:
    tracer.install()
    span = tracer.begin_op(op_id)
    try:
        return execute(op)
    finally:
        tracer.end_op(span)
        tracer.uninstall()


def run_traced(workload, rounds: int, tracer: Tracer) -> tuple[Result, Result]:
    """Run each op of ``rounds`` rounds twice, plain and with the tracer
    installed, in alternating order so neither side always runs first or
    right after the checks. A traced op fails unless its plain run passed
    the check and the traced run reproduced the plain digest."""
    ops = [op for _ in range(rounds) for op in workload.round()]
    plain, traced, check = Result(), Result(), Checker()
    plain.rounds.append(array("q"))
    traced.rounds.append(array("q"))
    for op_id, op in enumerate(ops):
        if op_id % 2:
            plain_run = execute(op)
            traced_run = execute_traced(op, op_id, tracer)
        else:
            traced_run = execute_traced(op, op_id, tracer)
            plain_run = execute(op)
        ran, output, elapsed = plain_run
        plain_digest = digest(output)
        plain_ok = check(op, ran, output, plain_digest)
        record(plain, op, plain_ok, elapsed, plain_digest)
        ran, output, elapsed = traced_run
        traced_digest = digest(output)
        record(traced, op, plain_ok and ran and traced_digest == plain_digest, elapsed, traced_digest)
    return plain, traced


def scaled_rounds(result: Result) -> list[list[float]]:
    """Each timed op's latency in ns at the reference speed: scaled by the
    kernel samples taken just before and just after the ops between them."""
    factors = []
    for (start, before), (end, after) in zip(result.samples, result.samples[1:]):
        factors += [speed.factor(before, after)] * (end - start)
    rounds, position = [], 0
    for latencies in result.rounds:
        rounds.append([ns * f for ns, f in zip(latencies, factors[position:])])
        position += len(latencies)
    return rounds


def timings(rounds) -> dict[str, tuple[float, int]]:
    """Throughput and latency percentiles of per-round op latencies in ns:
    metric name -> (value, sample count)."""
    lat_ms = [ns / 1e6 for latencies in rounds for ns in latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    rates = [len(latencies) / (sum(latencies) / 1e9) for latencies in rounds]
    return {
        # every round holds the same requests, so the median round rate is the
        # throughput with short slowdowns of the host left out
        "ops_per_s": (statistics.median(rates), len(rates)),
        "latency_p50_ms": (statistics.median(lat_ms), len(lat_ms)),
        "latency_p90_ms": (deciles[8], len(lat_ms)),
    }


def end_to_end(result: Result) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count); times at the reference speed."""
    return {
        **timings(scaled_rounds(result)),
        "failed_ratio": (result.failed / result.attempted, result.attempted),
        "peak_rss_mib": (result.peak_rss_mib, 1),
    }


def layer_metrics(plain: Result, traced: Result, tracer: Tracer) -> dict[str, float]:
    metrics = tracer.layer_metrics()
    metrics["verify.checked"] = traced.checked
    metrics["verify.checks_per_s"] = plain.checked / (plain.verify_ns / 1e9) if plain.verify_ns else 0.0
    metrics["trace.overhead_ratio"] = sum(traced.rounds[0]) / max(1, sum(plain.rounds[0]))
    return metrics


def trace_rounds(seconds: float, round_s: float) -> int:
    """Rounds a traced run makes: fixed by --seconds, not by machine speed,
    so its counts repeat exactly."""
    return max(1, math.ceil(seconds / round_s))
