"""Self-tests of the benchmark: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path

import pytest

import genpascal
import harness
import speed
from tracer import OP_SPAN, TARGETS, Tracer, bindings, load_spans, resolve
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
SEED = 7


def make(name: str, tmp_path: Path, seed: int = SEED):
    return WORKLOADS[name](random.Random(seed), tmp_path / f"ingest-{seed}")


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced round of every workload: (plain, traced, tracer, layer metrics)."""
    runs = {}
    for name in WORKLOADS:
        tracer = Tracer()
        plain, traced = harness.run_traced(make(name, tmp_path_factory.mktemp(name)), 1, tracer)
        runs[name] = (plain, traced, tracer, harness.layer_metrics(plain, traced, tracer))
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_untraced_run(name, traced_runs, tmp_path):
    plain, traced, _, _ = traced_runs[name]
    assert plain.failed == 0 and traced.failed == 0
    untraced = harness.run_timed(make(name, tmp_path), seconds=0, min_ops=1, warmup=False)
    assert untraced.failed == 0 and untraced.attempted == traced.attempted
    assert untraced.outputs.hexdigest() == traced.outputs.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_are_non_negative_and_sum_to_op_time(name, traced_runs, tmp_path):
    _, traced, tracer, _ = traced_runs[name]
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    header, columns = load_spans(path)
    assert header["names"][0] == OP_SPAN
    own = tracer.self_times()
    assert min(own) >= 0
    self_sum, op_wall = defaultdict(int), {}
    for idx, (name_id, op, parent) in enumerate(zip(columns["name_of"], columns["op"], columns["parent"])):
        self_sum[op] += own[idx]
        if parent < 0:
            assert name_id == 0
            op_wall[op] = columns["end"][idx] - columns["start"][idx]
    assert len(op_wall) == traced.attempted
    assert self_sum == op_wall


def test_exact_count_workload_shapes(traced_runs):
    metrics = {name: run[3] for name, run in traced_runs.items()}
    assert metrics["lookup"]["matrices.TriangularMatrix.calls"] == 0
    assert metrics["verify"]["serialize.bytes_out"] == 0
    for name in ("generate", "ingest"):
        assert metrics[name]["matrices.identity_check.calls"] == 0
    assert metrics["ingest"]["matrices.matmul.calls"] == 0
    assert metrics["verify"]["verify.checked"] > 0
    assert metrics["ingest"]["serialize.bytes_in"] > 0
    assert metrics["generate"]["serialize.bytes_out"] > 0


def test_counts_repeat_exactly(traced_runs, tmp_path):
    tracer = Tracer()
    plain, traced = harness.run_traced(make("lookup", tmp_path), 1, tracer)
    again = harness.layer_metrics(plain, traced, tracer)
    first = traced_runs["lookup"][3]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}


def test_latencies_scale_by_the_samples_around_them():
    result = harness.Result()
    result.rounds = [array("q", [100, 200]), array("q", [300])]
    # ops 0 and 1 lie between samples 1x and 2x the reference, op 2 between 2x and 2x
    ref = speed.REFERENCE_NS
    result.samples = [(0, ref), (2, 2 * ref), (3, 2 * ref)]
    scaled = harness.scaled_rounds(result)
    assert [pytest.approx(r) for r in scaled] == [[100 / 1.5, 200 / 1.5], [300 / 2]]


def test_every_per_layer_metric_is_reported(traced_runs):
    for _, _, _, metrics in traced_runs.values():
        for metric in SPEC["per_layer"]:
            assert metric["name"] in metrics


def test_install_replaces_every_binding_and_uninstall_restores():
    originals = {target: resolve(target) for targets in TARGETS.values() for target in targets}
    tracer = Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert bindings(original) == [], target
        # names brought in by ``from .x import y`` are patched too
        assert genpascal.cli.build_from_c is not originals["matrices:build_from_c"]
        assert genpascal.specs.fractal_entry is not originals["fractal:fractal_entry"]
        assert genpascal.Polynomial.__rmul__ is genpascal.Polynomial.__mul__
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert resolve(target) is original


def test_manifest_matches_benchmark():
    assert set(MANIFEST["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(MANIFEST["counted_helpers"]) <= set(TARGETS)
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for layer, metrics in MANIFEST["baseline_map"].items():
        assert set(metrics) <= names, layer
    counted = {f"{label}.self_s" for label in MANIFEST["counted_helpers"]}
    assert not counted & names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_reject_wrong_outputs(name, tmp_path):
    def passes(op, output) -> bool:
        return harness.Checker()(op, True, output, harness.digest(output))

    for op in make(name, tmp_path).round()[:4]:
        ran, output, _ = harness.execute(op)
        assert ran and passes(op, output)
        if isinstance(output, tuple):
            rc, text = output
            assert not passes(op, (rc, text.replace("1", "2", 1) if "1" in text else text + "0"))
            assert not passes(op, (1, text))
        else:
            assert not passes(op, [None] + output[1:])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
