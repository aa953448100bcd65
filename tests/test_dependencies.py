"""Every third-party module the package imports is a declared dependency.

``pip install .`` brings only ``[project].dependencies``; a module the
source imports beyond those (even lazily, inside a function) makes the
import fail wherever only the declared set is installed.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Distribution names in pyproject.toml's ``[project].dependencies``.

    Read with a regex: ``tomllib`` is 3.11+ and the suite runs on 3.10.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                        re.MULTILINE | re.DOTALL)
    assert listing is not None, "pyproject.toml declares no dependencies"
    names = re.findall(r"[\"']([A-Za-z0-9_.-]+)", listing.group(1))
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules() -> dict[str, set[str]]:
    """Top-level module -> the package files importing it (every import
    node, so imports inside functions count too)."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in imported_top_level_modules().items()
        if module not in sys.stdlib_module_names
        and module != "repro"
        and module.lower() not in declared
    }
    assert not undeclared, (
        f"imported but not in [project].dependencies: {undeclared}")
