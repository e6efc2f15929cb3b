"""Steadiness check: is each end-to-end metric steady across seeds?

Usage, from the root of a checkout::

    python3 jobbench/steadiness.py --runs 10 --first-seed 101 [WORKLOAD ...]

Runs ``jobbench/run.py`` once per seed (seeds ``first-seed`` upward) on
each workload, then prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is steady when its spread is below a third of its bound in
``BENCHMARK.json``.  Every run's result line is appended to
``.jobbench/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "workloads", nargs="*", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".jobbench" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "jobbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"workload": workload, "seed": seed, "result": result}
                ) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                failed += 1
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} run(s), {failed} incorrect or failed")
        for name, series in values.items():
            share = spread(series) if len(series) > 1 else 0.0
            limit = bounds.get(name, 0.0)
            ok = share < limit / 3
            steady = steady and ok and not failed
            print(
                f"  {name:<16} median {statistics.median(series):<12.6g} "
                f"spread {share:.4f} (bound {limit}) "
                f"{'ok' if ok else 'NOT STEADY'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
