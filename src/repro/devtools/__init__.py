"""Developer tooling that guards the project's reproducibility contract.

The heart of this package is ``repro lint`` (also ``python -m
repro.devtools.lint``): an AST-based static-analysis pass with
project-specific rules.  Trial replay assumes every source of
randomness flows through a seeded :class:`numpy.random.Generator`,
fingerprint-keyed caches assume hashed paths are wall-clock-free, and
:class:`~repro.serve.bundle.ModelBundle` assumes every pipeline
component is importable and picklable — the REP rules check those
invariants statically, before a careless ``np.random.choice`` silently
breaks resume or cache hits at runtime.

Every rule reads one file at a time.  The registries (AutoML
components, similarity measures, trigger policies, fusion resolvers)
are not linted: tests import and build them (see
``tests/test_registry_conformance.py``).  Lock order is not checked
statically: each guarded object holds one lock and none is taken while
another is held, which the runtime lock witness in
:mod:`repro.concurrency` checks under the concurrency test suites.

See DESIGN.md section 10 for the rule catalog and the
baseline/suppression workflow, and section 14 for the lock witness.
"""

from typing import Any

__all__ = [
    "ALL_RULES",
    "ModuleContext",
    "Rule",
    "Violation",
    "lint_paths",
    "main",
    "run_lint",
]

#: Lazy attribute → defining submodule.  Deferring the imports keeps
#: ``python -m repro.devtools.lint`` from importing ``lint`` twice
#: (once via the package, once as ``__main__``).
_EXPORTS = {
    "ModuleContext": "base", "Rule": "base", "Violation": "base",
    "ALL_RULES": "rules",
    "lint_paths": "lint", "main": "lint", "run_lint": "lint",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), name)
