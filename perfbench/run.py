"""genpascal benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with an
unpatched package; its times are scaled to a reference host speed measured
beside the program (see speed.py), and the raw wall times are printed too.
``--trace 1`` runs every op of a fixed number of rounds twice, plain and
with timing wrappers around genpascal's public functions, and reports the
per-layer metrics. Either way the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it name every
metric with its unit and sample count, and the environment. ``--workload all``
runs each workload in its own process and prints the lines of each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("generate", "verify", "lookup", "ingest")
SETUP_RUNS = 15

# Wall seconds one round takes in a traced run on a 2-core Xeon (each op run
# plain, checked and run traced): a traced run makes ceil(seconds /
# TRACE_ROUND_S) rounds, so it lasts about --seconds and its counts repeat
# exactly.
TRACE_ROUND_S = {"generate": 4.5, "verify": 5.0, "lookup": 0.12, "ingest": 2.0}


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
    }


def import_package():
    """Import genpascal from this checkout's src/, never from elsewhere."""
    if not (SRC / "genpascal" / "__init__.py").is_file():
        sys.exit(f"error: no genpascal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import genpascal
    import genpascal.cli  # noqa: F401

    if Path(genpascal.__file__).resolve().parent != SRC / "genpascal":
        sys.exit(f"error: imported genpascal from {genpascal.__file__}, not from {SRC}")


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing genpascal and
    genpascal.cli, after one run that writes the bytecode cache: (at the
    reference speed, raw)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import genpascal, genpascal.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    raw, scaled = [], []
    before = speed.sample_ns()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        after = speed.sample_ns()
        scaled.append(raw[-1] * speed.factor(before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import_package()
    import harness
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[workload_name](random.Random(seed), OUT / "ingest")
    raw = {}
    if trace:
        tracer = Tracer()
        rounds = harness.trace_rounds(seconds, TRACE_ROUND_S[workload_name])
        plain, traced = harness.run_traced(workload, rounds, tracer)
        tracer.dump(OUT / f"spans-{workload_name}.bin")
        values = harness.layer_metrics(plain, traced, tracer)
        metrics = {m["name"]: (values[m["name"]], traced.attempted, m["unit"]) for m in spec["per_layer"]}
        attempted, failed = traced.attempted, traced.failed
    else:
        result = harness.run_timed(workload, seconds)
        values = harness.end_to_end(result)
        setup_scaled, setup_raw = setup_seconds()
        values["setup_s"] = (setup_scaled, SETUP_RUNS)
        raw = {name: value for name, (value, _) in harness.timings(result.rounds).items()}
        raw["setup_s"] = setup_raw
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        ratio = values["failed_ratio"][0]
        print(f"{workload_name} failed_ratio {ratio:.6g} ({result.failed}/{result.attempted})")
        samples = [ns for _, ns in result.samples]
        print(
            f"{workload_name} reference kernel sample median {statistics.median(samples) / 1e6:.4g} ms "
            f"(min {min(samples) / 1e6:.4g}, max {max(samples) / 1e6:.4g}, n={len(samples)}); "
            f"times are scaled to {speed.REFERENCE_NS / 1e6:.4g} ms; raw wall times: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
        metrics = {name: (*values[name], unit) for name, unit in units.items()}
        attempted, failed = result.attempted, result.failed
    print("env " + json.dumps(env))
    for name, (value, samples, unit) in metrics.items():
        print(f"{workload_name} {name} {value:.6g} {unit} n={samples}")
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "raw_wall_times": raw,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, samples, unit) in metrics.items()
        },
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"result-{workload_name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: FAILED (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
