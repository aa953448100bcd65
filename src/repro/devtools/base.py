"""Shared plumbing of the REP linter: violations, contexts, rule base.

A :class:`Violation` is one finding; its :attr:`~Violation.fingerprint`
digests the rule code, file and offending *line text* (not the line
number), so a checked-in baseline survives unrelated edits that shift
code up or down.  :class:`ModuleContext` is everything a rule needs to
inspect one file, and :class:`Rule` is the tiny interface every REP
rule implements.
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

#: Per-line suppressions: ``# repro-lint: disable=REP001,REP005`` (an
#: optional trailing justification is encouraged and ignored by the
#: parser).  ``disable=all`` silences every rule on the line.
SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,]+)")


@dataclass(frozen=True)
class Violation:
    """One finding of one rule at one source location."""

    code: str
    path: str  # posix-style path, as reported to the user
    line: int
    col: int
    message: str
    hint: str = ""
    line_text: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used for baseline matching."""
        payload = f"{self.code}|{self.path}|{self.line_text.strip()}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]

    def format(self, show_hint: bool = True) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if show_hint and self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message, "hint": self.hint,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleContext:
    """One parsed source file, ready for rules to inspect."""

    path: Path
    rel: str  # path as reported (posix, relative to the lint root)
    module: str | None  # dotted module path for files under ``src/``
    tree: ast.Module
    lines: list[str]

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed_codes(self, lineno: int) -> set[str]:
        """Codes disabled on ``lineno`` via a ``repro-lint`` comment."""
        match = SUPPRESS_RE.search(self.line_text(lineno))
        if not match:
            return set()
        return {code.strip().upper() for code in match.group(1).split(",")
                if code.strip()}


class Rule:
    """Base class of the per-file AST rules (REP001–REP006).

    Subclasses set ``code``/``summary``/``hint`` and implement
    :meth:`check`.  ``scope`` limits a rule to dotted-module prefixes —
    ``None`` means every linted file, including tests and benchmarks
    (which have no module path and therefore never match a scoped
    rule).
    """

    code: str = ""
    summary: str = ""
    hint: str = ""
    scope: tuple[str, ...] | None = None

    def applies(self, ctx: ModuleContext) -> bool:
        if self.scope is None:
            return True
        if ctx.module is None:
            return False
        return any(ctx.module == prefix or ctx.module.startswith(prefix)
                   for prefix in self.scope)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: ModuleContext, node: ast.AST,
                  message: str | None = None,
                  hint: str | None = None) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            code=self.code, path=ctx.rel, line=lineno, col=col,
            message=message if message is not None else self.summary,
            hint=self.hint if hint is None else hint,
            line_text=ctx.line_text(lineno))


class ImportMap(ast.NodeVisitor):
    """Local name → canonical dotted origin, from a module's imports.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from numpy import
    random as npr`` maps ``npr`` to ``numpy.random``; ``from time import
    time`` maps ``time`` to ``time.time``.  Relative imports are project
    modules and never match the stdlib/numpy patterns the rules look
    for, so they are ignored.
    """

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self.names[alias.asname] = alias.name
            else:
                # ``import numpy.random`` binds the *top-level* name.
                top = alias.name.split(".")[0]
                self.names[top] = top

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for alias in node.names:
            bound = alias.asname or alias.name
            self.names[bound] = f"{node.module}.{alias.name}"

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportMap":
        mapper = cls()
        mapper.visit(tree)
        return mapper

    def resolve_call(self, func: ast.expr) -> str | None:
        """Canonical dotted name of a call target, or ``None``.

        ``np.random.choice`` resolves to ``numpy.random.choice`` when
        ``np`` is an alias of ``numpy``; a bare name resolves through a
        ``from``-import binding.  Chains rooted at anything other than
        an imported module (``self.rng.choice``) resolve to ``None``.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.names.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


def parse_module(path: Path, rel: str) -> tuple[ModuleContext | None, Violation | None]:
    """Read and parse one file; syntax errors become REP000 findings."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Violation(
            code="REP000", path=rel, line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
            hint="the file cannot be parsed, so no rule ran on it",
            line_text=lines[exc.lineno - 1] if exc.lineno and
            exc.lineno <= len(lines) else "")
    return ModuleContext(path=path, rel=rel, module=module_name(path),
                         tree=tree, lines=lines), None


def module_name(path: Path) -> str | None:
    """Dotted module path for a file under a ``src/`` root, else None."""
    parts = path.resolve().parts
    if "src" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("src")
    dotted = list(parts[idx + 1:])
    if not dotted or not dotted[-1].endswith(".py"):
        return None
    dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted) if dotted else None
