"""Run one benchmark workload in this process and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``train`` (``AutoMLEM.fit`` and
``evaluate``), ``serve`` (raw records through ``MatchService`` to entity
ids) and ``resolve`` (``EntityStore`` reads beside writes).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps each layer's public calls in spans and reports the
per-layer metrics instead; its spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  ``--tiny`` shrinks
every input, for the smoke test.  The metric names and units come from
``BENCHMARK.json``.

Standard output holds a provenance header line, one line per
correctness check, one line of the workload's own named metrics, and
last one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 1 means a correctness check
failed; 2 means the program could not be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("train", "serve", "resolve")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from an
    installed copy; exit 2 when there is none."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {package}", file=sys.stderr)
        raise SystemExit(2)


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a git checkout)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of every ``src/repro`` Python file: the code identity when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, params: dict) -> dict:
    import numpy
    import scipy

    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "generation": params,
    }


def end_to_end(outcome) -> dict[str, float]:
    from common import percentile

    return {
        "setup_s": outcome.setup_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "throughput_per_s": outcome.work / outcome.work_s,
        "latency_p50_ms": 1000.0 * percentile(outcome.latencies_s, 50),
    }


def per_layer(outcome, names: list[str]) -> dict[str, float]:
    """The workload's layer metrics; layers it never calls read 0."""
    values = {name: 0.0 for name in names}
    values.update(outcome.layers)
    values["trace.throughput_per_s"] = outcome.work / outcome.work_s
    values["quality.f1"] = outcome.f1
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    from tracing import Tracer

    workload = importlib.import_module(f"{args.workload}_workload")
    tracer = Tracer() if args.trace else None
    outcome = workload.run(seed=args.seed, seconds=args.seconds,
                           tiny=args.tiny, tracer=tracer)

    header = provenance(args, outcome.params)
    print("# provenance " + json.dumps(header, sort_keys=True))
    for name, ok in outcome.checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    error_rate = outcome.failed / outcome.attempted
    report = {**outcome.report,
              "setup_s": (outcome.setup_s, "s"),
              "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
              "error_rate": (error_rate, "fraction")}
    print(f"# {args.workload} " + "  ".join(
        f"{name}={value:.6g} {unit}" if isinstance(value, float)
        else f"{name}={value} {unit}"
        for name, (value, unit) in report.items()))

    if tracer is None:
        declared = spec["end_to_end"]
        values = end_to_end(outcome)
    else:
        declared = spec["per_layer"]
        values = per_layer(outcome, [m["name"] for m in declared])
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     header)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = all(outcome.checks.values())
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
