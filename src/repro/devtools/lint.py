"""``repro lint`` — run the REP rules over source trees.

Usage (CLI)::

    repro lint [paths ...]               # or: python -m repro.devtools.lint
    repro lint --list-rules
    repro lint --write-baseline          # snapshot current violations
    repro lint --select REP001,REP005 src

With no paths, ``src``, ``tests`` and ``benchmarks`` are linted (those
that exist under the current directory).  Findings already recorded in
the baseline file (default ``.repro-lint-baseline``) are counted but do
not fail the run; anything new exits non-zero.  Per-line suppressions
use ``# repro-lint: disable=REPxxx — justification``.

Baseline entries match on a fingerprint of (rule, file, line *text*),
so unrelated edits that shift line numbers do not invalidate them.
``--write-baseline`` regenerates the file mechanically and therefore
drops hand-written justification comments — re-add them when you
deliberately keep an entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TextIO

from .base import ModuleContext, Violation, parse_module
from .rules import ALL_RULES

DEFAULT_BASELINE = ".repro-lint-baseline"
DEFAULT_TARGETS = ("src", "tests", "benchmarks")


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _apply_suppressions(ctx: ModuleContext,
                        violations: list[Violation]) -> list[Violation]:
    kept = []
    for violation in violations:
        codes = ctx.suppressed_codes(violation.line)
        if "ALL" in codes or violation.code in codes:
            continue
        kept.append(violation)
    return kept


def lint_paths(paths: Sequence[Path | str], *,
               select: set[str] | None = None,
               root: Path | None = None) -> list[Violation]:
    """All (unsuppressed) findings for ``paths``, in file/line order."""
    root = Path.cwd() if root is None else root
    violations: list[Violation] = []
    for path in iter_python_files(Path(p) for p in paths):
        rel = _relpath(path, root)
        ctx, parse_error = parse_module(path, rel)
        if parse_error is not None:
            violations.append(parse_error)
            continue
        assert ctx is not None
        found: list[Violation] = []
        for rule in ALL_RULES:
            if select is not None and rule.code not in select:
                continue
            if rule.applies(ctx):
                found.extend(rule.check(ctx))
        violations.extend(_apply_suppressions(ctx, found))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


# -- baseline -----------------------------------------------------------


def load_baseline(path: Path) -> Counter[tuple[str, str]]:
    """Baseline entries as a ``(code, fingerprint)`` multiset."""
    entries: Counter[tuple[str, str]] = Counter()
    if not path.exists():
        return entries
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=2)
        if len(parts) >= 2:
            entries[(parts[0], parts[1])] += 1
    return entries


def write_baseline(path: Path, violations: Sequence[Violation]) -> None:
    lines = [
        "# repro-lint baseline — pre-existing findings that do not fail",
        "# the gate.  Regenerate with: repro lint --write-baseline",
        "# (regeneration is mechanical and drops comments; keep a",
        "#  justification comment above every entry that is intentional",
        "#  rather than debt).",
        "# format: <code> <fingerprint> <path>:<line> <message>",
    ]
    for violation in violations:
        lines.append(f"{violation.code} {violation.fingerprint} "
                     f"{violation.path}:{violation.line} "
                     f"{violation.message}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_by_baseline(
    violations: Sequence[Violation], baseline: Counter[tuple[str, str]],
) -> tuple[list[Violation], list[Violation], Counter[tuple[str, str]]]:
    """→ (new, baselined, stale-baseline-entries)."""
    remaining = Counter(baseline)
    new: list[Violation] = []
    matched: list[Violation] = []
    for violation in violations:
        key = (violation.code, violation.fingerprint)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            matched.append(violation)
        else:
            new.append(violation)
    stale = Counter({k: n for k, n in remaining.items() if n > 0})
    return new, matched, stale


# -- CLI ----------------------------------------------------------------


def _print_rule_catalog(out: TextIO) -> None:
    print("repro lint rule catalog:", file=out)
    for rule in ALL_RULES:
        print(f"  {rule.code}  {rule.summary}", file=out)
        scope = ("project-wide" if rule.scope is None
                 else "scope: " + ", ".join(rule.scope))
        print(f"          {scope}; hint: {rule.hint}", file=out)


def known_rule_codes() -> set[str]:
    """Every code ``--select`` accepts."""
    return {rule.code for rule in ALL_RULES} | {"REP000"}


def run_lint(paths: Sequence[str], *, baseline: str = DEFAULT_BASELINE,
             no_baseline: bool = False, update_baseline: bool = False,
             select: str | None = None, output_format: str = "text",
             root: Path | None = None, out: TextIO | None = None,
             err: TextIO | None = None) -> int:
    """Programmatic entry point; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    root = Path.cwd() if root is None else root
    if not paths:
        paths = [str(root / target) for target in DEFAULT_TARGETS
                 if (root / target).is_dir()]
    selected: set[str] | None = None
    if select:
        selected = {code.strip().upper() for code in select.split(",")
                    if code.strip()}
        unknown = sorted(selected - known_rule_codes())
        if unknown:
            print(f"error: unknown rule code{'s' if len(unknown) > 1 else ''} "
                  f"in --select: {', '.join(unknown)} "
                  f"(run --list-rules for the catalog)",
                  file=err)
            return 2
    violations = lint_paths(paths, select=selected, root=root)

    baseline_path = Path(baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    if update_baseline:
        write_baseline(baseline_path, violations)
        print(f"wrote {len(violations)} entr"
              f"{'y' if len(violations) == 1 else 'ies'} to "
              f"{_relpath(baseline_path, root)}", file=out)
        return 0

    known = (Counter() if no_baseline
             else load_baseline(baseline_path))
    new, matched, stale = split_by_baseline(violations, known)

    if output_format == "json":
        print(json.dumps({
            "new": [v.as_dict() for v in new],
            "baselined": [v.as_dict() for v in matched],
            "stale_baseline_entries": [
                {"code": code, "fingerprint": fp, "count": count}
                for (code, fp), count in sorted(stale.items())],
        }, indent=2), file=out)
        return 1 if new else 0

    for violation in new:
        print(violation.format(), file=out)
    summary = (f"{len(new)} new violation{'s' if len(new) != 1 else ''}, "
               f"{len(matched)} baselined")
    if stale:
        summary += (f", {sum(stale.values())} stale baseline "
                    f"entr{'y' if sum(stale.values()) == 1 else 'ies'} "
                    f"(burned down? run --write-baseline)")
    print(summary, file=out)
    return 1 if new else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the ``repro lint`` options to ``parser``; see :func:`run_args`."""
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "benchmarks)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="snapshot current findings as the new baseline")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(e.g. REP001,REP005)")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"), dest="output_format",
                        help="finding output format")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def run_args(args: argparse.Namespace) -> int:
    """Run ``repro lint`` for a namespace parsed with :func:`add_arguments`."""
    if args.list_rules:
        _print_rule_catalog(sys.stdout)
        return 0
    return run_lint(args.paths, baseline=args.baseline,
                    no_baseline=args.no_baseline,
                    update_baseline=args.write_baseline,
                    select=args.select,
                    output_format=args.output_format)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based reproducibility linter (REP rules)")
    add_arguments(parser)
    return run_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
