"""Run the benchmark on two trees in alternating pairs and write one BENCH_<label>.json.

    python tools/bench_pairs.py --parent ../parent --workloads lookup --seeds 11 --pairs 10 --seconds 25 --label lookup

``--parent`` is a second checkout of the commit to compare against, for example
made with ``git archive <rev> | tar -x -C ../parent``; ``--change`` (by default
this checkout) is the tree under test. Each pair runs the BENCHMARK.json
command (``perfbench/run.py --trace 0``) once in each tree with the same
workload, seed and run length, parent first in even pairs and change first in
odd ones, and reads the run's ``.bench_out/result-*.json``. Seeds are used in
turn, one per pair.

For every workload and end-to-end metric the file holds each side's runs,
median and quartiles, the change's wins out of the pairs (a tie counts for
neither side), the BENCHMARK.json bound and whether the change's median is
inside it, and whether the change is better in at least nine tenths of the
pairs and in the median by more than the parent's interquartile distance.
Only the standard library is used, and nothing under perfbench/ is written
but its own ``.bench_out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result record."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    result = tree / ".bench_out" / f"result-{workload}-{seed}-trace0.json"
    return json.loads(result.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's comparison over the pairs (parent[i], change[i])."""
    sign = 1 if better == "higher" else -1
    sides = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[name] = {"runs": values, "median": median, "q1": q1, "q3": q3}
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_median, c_median = sides["parent"]["median"], sides["change"]["median"]
    gain = sign * (c_median - p_median)  # > 0: the change is better
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {
        "better": better,
        **sides,
        "wins": wins,
        "pairs": len(parent),
        "median_gain": gain,
        "median_gain_ratio": gain / p_median if p_median else None,
        "parent_iqr": parent_iqr,
        "bound": bound,
        "inside_bound": gain >= -bound * abs(p_median),
        "gain_shown": wins >= 0.9 * len(parent) and gain > parent_iqr,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the commit to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout under test (default: this one)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--output", type=Path, default=None, help="default: BENCH_<label>.json in --change")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    doc = {
        "label": args.label,
        "command": spec["command"],
        "seconds": args.seconds,
        "seeds": args.seeds,
        "pairs": args.pairs,
        "env": None,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                record = run_once(trees[side], spec["command"], workload, seed, args.seconds)
                runs[side].append(record)
                doc["env"] = doc["env"] or record["env"]
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"ops_per_s {record['metrics']['ops_per_s']['value']:.6g}", file=sys.stderr)
        doc["workloads"][workload] = {
            "failed": {side: [r["failed"] for r in records] for side, records in runs.items()},
            "attempted": {side: [r["attempted"] for r in records] for side, records in runs.items()},
            **{
                m["name"]: summarize(
                    *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change")),
                    m["better"],
                    m["bound"],
                )
                for m in metrics
            },
        }
    output = args.output or trees["change"] / f"BENCH_{args.label}.json"
    output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
