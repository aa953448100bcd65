"""The one event log: ownership, append mode, and that nothing else in
``src/repro`` opens one."""

import ast
from pathlib import Path

import pytest

from repro import events
from repro.events import EventLog, read_events

SRC = Path(events.__file__).parent


def test_opened_closes_an_owned_log_when_the_body_raises(tmp_path):
    with pytest.raises(RuntimeError, match="boom"):
        with EventLog.opened(tmp_path / "a.jsonl") as log:
            log.event("trial", index=0)
            raise RuntimeError("boom")
    with pytest.raises(ValueError, match="closed"):
        log.event("trial", index=1)
    assert read_events(tmp_path / "a.jsonl") == [{"type": "trial",
                                                  "index": 0}]


def test_opened_leaves_a_passed_in_log_open_when_the_body_raises(
        tmp_path):
    shared = EventLog(tmp_path / "b.jsonl")
    with pytest.raises(RuntimeError, match="boom"):
        with EventLog.opened(shared):
            raise RuntimeError("boom")
    shared.event("summary")  # still open: its opener closes it
    shared.close()
    assert read_events(tmp_path / "b.jsonl") == [{"type": "summary"}]


def test_a_path_is_rewritten_unless_appending(tmp_path):
    path = tmp_path / "run.jsonl"
    for _ in range(2):
        with EventLog.opened(path, append=True) as log:
            log.event("promotion")
    assert [r["type"] for r in read_events(path)] == ["promotion"] * 2
    with EventLog.opened(path) as log:
        log.event("summary")
    assert [r["type"] for r in read_events(path)] == ["summary"]


def event_log_constructions(tree):
    """Line numbers of every ``EventLog(...)`` / ``x.EventLog(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "EventLog":
                yield node.lineno


def test_only_events_constructs_an_event_log():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative != "events.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{relative}:{line}"
                      for line in event_log_constructions(tree)]
    assert found == [], (
        "open logs through EventLog.opened(), which closes what it opens")


def test_construction_scan_sees_each_form():
    tree = ast.parse("EventLog(p)\nevents.EventLog(p)\n"
                     "EventLog.opened(p)\n")
    assert list(event_log_constructions(tree)) == [1, 2]
