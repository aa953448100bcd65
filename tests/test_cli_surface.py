"""The command-line surface, pinned: every command path's arguments.

Walks :func:`repro.cli.build_parser` and every nested subparser and
records, per argument, its option strings, dest, default, choices,
``required``, ``nargs``, ``type`` and action class (help strings are
left out), one JSON line per argument.  The record is compared with
``cli_surface.jsonl`` next to this file, so a refactor of the CLI
cannot add, drop, rename or re-default a flag without the golden file
changing in the same diff.

Regenerate after an intended surface change with::

    PYTHONPATH=src python tests/test_cli_surface.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.jsonl")


def _describe(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):  # a subparsers action: its command names
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": choices,
        "required": action.required,
        "nargs": action.nargs,
        "type": getattr(action.type, "__name__", action.type),
        "action": type(action).__name__,
    }


def cli_surface() -> list[str]:
    """One sorted JSON line per (command path, argument).

    Positionals are keyed by position, optionals by their first option
    string, so the declaration order of optionals — which changes only
    the help layout — is not part of the surface.
    """
    lines = []
    pending = [("repro", build_parser())]
    while pending:
        path, parser = pending.pop()
        positionals = [action for action in parser._actions
                       if not action.option_strings]
        for action in parser._actions:
            key = (action.option_strings[0] if action.option_strings
                   else f"#{positionals.index(action)}")
            lines.append(json.dumps([path, key, _describe(action)],
                                    sort_keys=True))
            if isinstance(action, argparse._SubParsersAction):
                pending.extend((f"{path} {name}", sub)
                               for name, sub in action.choices.items())
    return sorted(lines)


def test_cli_surface_matches_golden():
    assert cli_surface() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_cli_surface.py --write")
    GOLDEN.write_text("\n".join(cli_surface()) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
