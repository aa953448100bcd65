"""Per-layer table for the README: a default and a held-out seed.

Runs every workload untraced and traced for each seed, one fresh
process per run, and prints a markdown table per workload: the
end-to-end metrics of the untraced run, the per-layer metrics the
workload moves, and the tracing overhead (the traced run's throughput
against the untraced run's, same seed).

Usage, from the repository root::

    python3 perfbench/report.py [--seeds 0,7] [--seconds 40]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,7")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--workloads", default="serve,resolve,train")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in args.workloads.split(","):
        plain = {seed: run(workload, seed, args.seconds, 0) for seed in seeds}
        traced = {seed: run(workload, seed, args.seconds, 1)
                  for seed in seeds}
        print(f"\n#### `{workload}`\n")
        print("| metric | unit | " + " | ".join(
            f"seed {seed}" for seed in seeds) + " |")
        print("|---|---|" + "---|" * len(seeds))
        for kind, values in (("end_to_end", plain), ("per_layer", traced)):
            for metric in spec[kind]:
                name = metric["name"]
                if any(values[seed][name] for seed in seeds):
                    print(f"| `{name}` | {metric['unit']} | " + " | ".join(
                        f"{values[seed][name]:.4g}" for seed in seeds)
                        + " |")
        print("| tracing overhead (1 - traced/untraced throughput) | "
              "fraction | " + " | ".join(
                  f"{1 - traced[seed]['trace.throughput_per_s'] / plain[seed]['throughput_per_s']:+.3f}"
                  for seed in seeds) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
