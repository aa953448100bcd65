"""The REP linter: every rule's hit and non-hit fixtures, suppression,
baselines, the CLI surface, and the typed-public-API completeness check
that stands in for mypy's ``disallow_untyped_defs`` locally."""

import ast
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.base import ImportMap, module_name, parse_module
from repro.devtools.lint import (
    lint_paths,
    load_baseline,
    main,
    run_lint,
    split_by_baseline,
    write_baseline,
)
from repro.devtools.rules import WallClockInHashedPath

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Path (relative to the lint root) that puts a fixture inside the
#: features package — in scope for every scoped rule.
IN_SCOPE = "src/repro/features/fixture_mod.py"
#: Path with no ``src`` segment: module is None, scoped rules skip it.
NO_SCOPE = "tests/fixture_mod.py"


def lint_source(tmp_path, source, rel=IN_SCOPE, select=None):
    """Write ``source`` at ``rel`` under a tmp root and lint that file."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    selected = None if select is None else {select}
    return lint_paths([path], select=selected, root=tmp_path)


def codes(violations):
    return [v.code for v in violations]


# -- REP000: unparseable files ------------------------------------------


def test_syntax_error_reports_rep000(tmp_path):
    found = lint_source(tmp_path, "def broken(:\n")
    assert codes(found) == ["REP000"]
    assert "syntax error" in found[0].message


# -- REP001: unseeded randomness ----------------------------------------


def test_rep001_flags_global_numpy_randomness(tmp_path):
    found = lint_source(tmp_path, (
        "import numpy as np\n"
        "x = np.random.choice([1, 2, 3])\n"), select="REP001")
    assert codes(found) == ["REP001"]
    assert "numpy.random.choice" in found[0].message


def test_rep001_flags_stdlib_random(tmp_path):
    found = lint_source(tmp_path, (
        "import random\n"
        "x = random.randint(0, 10)\n"), select="REP001")
    assert codes(found) == ["REP001"]


def test_rep001_allows_seeded_constructors_and_generators(tmp_path):
    found = lint_source(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "legacy = np.random.RandomState(0)\n"
        "r = random.Random(0)\n"
        "x = rng.choice([1, 2, 3])\n"), select="REP001")
    assert found == []


def test_rep001_resolves_from_import_aliases(tmp_path):
    found = lint_source(tmp_path, (
        "from numpy import random as npr\n"
        "x = npr.shuffle([1, 2])\n"), select="REP001")
    assert codes(found) == ["REP001"]


def test_rep001_flags_seedless_generator_construction(tmp_path):
    found = lint_source(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
        "legacy = np.random.RandomState()\n"
        "r = random.Random()\n"), select="REP001")
    assert codes(found) == ["REP001", "REP001", "REP001"]
    assert all("OS entropy" in v.message for v in found)


def test_rep001_allows_keyword_seed_material(tmp_path):
    found = lint_source(tmp_path, (
        "import numpy as np\n"
        "rng = np.random.default_rng(seed=7)\n"
        "seq = np.random.SeedSequence(entropy=1)\n"), select="REP001")
    assert found == []


# -- REP002: wall clock / environment in hashed paths -------------------


def test_rep002_flags_wall_clock_in_scoped_module(tmp_path):
    found = lint_source(tmp_path, (
        "import time\n"
        "stamp = time.time()\n"), select="REP002")
    assert codes(found) == ["REP002"]


def test_rep002_flags_os_environ_reads(tmp_path):
    found = lint_source(tmp_path, (
        "import os\n"
        "home = os.environ['HOME']\n"), select="REP002")
    assert codes(found) == ["REP002"]


def test_rep002_allows_monotonic_clocks(tmp_path):
    found = lint_source(tmp_path, (
        "import time\n"
        "t0 = time.monotonic()\n"
        "t1 = time.perf_counter()\n"), select="REP002")
    assert found == []


def test_rep002_skips_out_of_scope_modules(tmp_path):
    source = "import time\nstamp = time.time()\n"
    # Telemetry code (repro.automl) may read the clock freely...
    assert lint_source(tmp_path, source,
                       rel="src/repro/automl/fixture_mod.py",
                       select="REP002") == []
    # ...and files without a module path (tests) are never in scope.
    assert lint_source(tmp_path, source, rel=NO_SCOPE,
                       select="REP002") == []


def test_rep002_flags_module_level_clock_in_resolve(tmp_path):
    found = lint_source(tmp_path, "import time\nstamp = time.time()\n",
                        rel="src/repro/resolve/fixture_mod.py",
                        select="REP002")
    assert codes(found) == ["REP002"]


def _fingerprint_defs():
    """(module, function name) for every fingerprint or cache-key def
    in ``src/repro``."""
    for path in sorted((REPO_ROOT / "src/repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and ("fingerprint" in node.name
                         or node.name in ("cache_key", "_cache_key"))):
                yield module_name(path), node.name


def test_rep002_scope_covers_every_fingerprint_module():
    """A fingerprint defined outside REP002's scope would go unchecked."""
    rule = WallClockInHashedPath()
    defs = list(_fingerprint_defs())
    assert defs, "no fingerprint functions found"
    outside = [f"{module}.{name}" for module, name in defs
               if not any(module == prefix or module.startswith(prefix + ".")
                          for prefix in rule.scope)]
    assert outside == []


# -- REP003: silent broad excepts ---------------------------------------


def test_rep003_flags_silent_broad_except(tmp_path):
    found = lint_source(tmp_path, (
        "try:\n"
        "    work()\n"
        "except Exception:\n"
        "    pass\n"), select="REP003")
    assert codes(found) == ["REP003"]


def test_rep003_flags_bare_except(tmp_path):
    found = lint_source(tmp_path, (
        "try:\n"
        "    work()\n"
        "except:\n"
        "    result = None\n"), select="REP003")
    assert codes(found) == ["REP003"]


def test_rep003_allows_reraise_logging_and_capture(tmp_path):
    found = lint_source(tmp_path, (
        "try:\n"
        "    work()\n"
        "except Exception:\n"
        "    log.warning('failed')\n"
        "try:\n"
        "    work()\n"
        "except Exception:\n"
        "    raise RuntimeError('wrapped')\n"
        "try:\n"
        "    work()\n"
        "except Exception as exc:\n"
        "    results.append(exc)\n"), select="REP003")
    assert found == []


def test_rep003_ignores_narrow_excepts(tmp_path):
    found = lint_source(tmp_path, (
        "try:\n"
        "    work()\n"
        "except ValueError:\n"
        "    pass\n"), select="REP003")
    assert found == []


# -- REP004: pickle-unsafe instance attributes --------------------------


def test_rep004_flags_lambda_on_self(tmp_path):
    found = lint_source(tmp_path, (
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.fn = lambda x: x + 1\n"), select="REP004")
    assert codes(found) == ["REP004"]
    assert "lambda" in found[0].message


def test_rep004_flags_local_function_on_self(tmp_path):
    found = lint_source(tmp_path, (
        "class Thing:\n"
        "    def __init__(self):\n"
        "        def helper(x):\n"
        "            return x\n"
        "        self.fn = helper\n"), select="REP004")
    assert codes(found) == ["REP004"]


def test_rep004_allows_module_level_functions(tmp_path):
    found = lint_source(tmp_path, (
        "def helper(x):\n"
        "    return x\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.fn = helper\n"), select="REP004")
    assert found == []


def test_rep004_skips_test_files(tmp_path):
    found = lint_source(tmp_path, (
        "class Fake:\n"
        "    def __init__(self):\n"
        "        self.fn = lambda x: x\n"), rel=NO_SCOPE, select="REP004")
    assert found == []


# -- REP005: float equality ---------------------------------------------


def test_rep005_flags_float_literal_equality(tmp_path):
    found = lint_source(tmp_path, (
        "def check(x):\n"
        "    return x == 1.0 or x != 0.5\n"), select="REP005")
    assert codes(found) == ["REP005", "REP005"]


def test_rep005_ignores_int_and_ordering_comparisons(tmp_path):
    found = lint_source(tmp_path, (
        "def check(x):\n"
        "    return x == 1 or x < 1.0 or x >= 0.5\n"), select="REP005")
    assert found == []


# -- REP006: mutable defaults -------------------------------------------


def test_rep006_flags_mutable_defaults(tmp_path):
    found = lint_source(tmp_path, (
        "def f(items=[], table={}, bag=set(), counts=dict()):\n"
        "    return items, table, bag, counts\n"), select="REP006")
    assert codes(found) == ["REP006"] * 4


def test_rep006_allows_immutable_defaults(tmp_path):
    found = lint_source(tmp_path, (
        "def f(items=None, names=(), label='x', n=3):\n"
        "    return items or []\n"), select="REP006")
    assert found == []


# -- REP008: EventLog._fh lock bypass -----------------------------------


def test_rep008_flags_fh_access_outside_runner(tmp_path):
    found = lint_source(tmp_path, (
        "def tail(log):\n"
        "    log._fh.write('{}\\n')\n"
        "    return log._fh\n"), select="REP008")
    assert codes(found) == ["REP008"] * 2
    assert "bypasses the EventLog write lock" in found[0].message


def test_rep008_exempts_the_defining_module(tmp_path):
    found = lint_source(tmp_path, (
        "class EventLog:\n"
        "    def event(self, type, **fields):\n"
        "        self._fh.write('{}\\n')\n"),
        rel="src/repro/events.py", select="REP008")
    assert found == []


def test_rep008_out_of_scope_outside_repro(tmp_path):
    found = lint_source(tmp_path, (
        "def tail(log):\n"
        "    return log._fh\n"), rel=NO_SCOPE, select="REP008")
    assert found == []


def test_rep008_allows_locked_write_calls(tmp_path):
    found = lint_source(tmp_path, (
        "def emit(log, record):\n"
        "    log.event('trial', **record)\n"
        "    log.close()\n"), select="REP008")
    assert found == []


# -- suppressions -------------------------------------------------------


def test_inline_suppression_silences_named_code(tmp_path):
    found = lint_source(tmp_path, (
        "def check(x):\n"
        "    return x == 1.0  "
        "# repro-lint: disable=REP005 - exact by construction\n"),
        select="REP005")
    assert found == []


def test_inline_suppression_is_per_code(tmp_path):
    found = lint_source(tmp_path, (
        "def check(x):\n"
        "    return x == 1.0  # repro-lint: disable=REP001\n"),
        select="REP005")
    assert codes(found) == ["REP005"]


def test_disable_all_silences_every_rule(tmp_path):
    found = lint_source(tmp_path, (
        "import numpy as np\n"
        "x = np.random.rand() == 0.5  # repro-lint: disable=all\n"))
    assert found == []


# -- baseline workflow --------------------------------------------------


def test_baseline_round_trip_and_line_shift_stability(tmp_path):
    source = "def check(x):\n    return x == 1.0\n"
    found = lint_source(tmp_path, source, select="REP005")
    baseline_path = tmp_path / ".repro-lint-baseline"
    write_baseline(baseline_path, found)
    entries = load_baseline(baseline_path)
    assert sum(entries.values()) == 1

    # Shifting the offending line down must not invalidate the entry:
    # fingerprints hash line *text*, not line numbers.
    shifted = "# a new leading comment\n\n" + source
    refound = lint_source(tmp_path, shifted, select="REP005")
    new, matched, stale = split_by_baseline(refound, entries)
    assert new == [] and len(matched) == 1 and not stale


def test_split_by_baseline_reports_new_and_stale(tmp_path):
    source = "def check(x):\n    return x == 1.0\n"
    found = lint_source(tmp_path, source, select="REP005")
    baseline_path = tmp_path / ".repro-lint-baseline"
    write_baseline(baseline_path, found)
    entries = load_baseline(baseline_path)

    changed = "def check(x):\n    return x == 2.5\n"
    refound = lint_source(tmp_path, changed, select="REP005")
    new, matched, stale = split_by_baseline(refound, entries)
    assert len(new) == 1 and matched == [] and sum(stale.values()) == 1


def test_run_lint_exit_codes_follow_baseline(tmp_path):
    path = tmp_path / "src/repro/features/fixture_mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("def check(x):\n    return x == 1.0\n")
    out = io.StringIO()
    assert run_lint([str(path)], root=tmp_path, out=out) == 1
    assert "REP005" in out.getvalue()

    # Snapshot the finding, then the same run passes.
    assert run_lint([str(path)], root=tmp_path, update_baseline=True,
                    out=io.StringIO()) == 0
    assert run_lint([str(path)], root=tmp_path, out=io.StringIO()) == 0
    # --no-baseline reports it again.
    assert run_lint([str(path)], root=tmp_path, no_baseline=True,
                    out=io.StringIO()) == 1


def test_run_lint_json_format(tmp_path):
    path = tmp_path / "src/repro/features/fixture_mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("def check(x):\n    return x == 1.0\n")
    out = io.StringIO()
    code = run_lint([str(path)], root=tmp_path, output_format="json",
                    out=out)
    payload = json.loads(out.getvalue())
    assert code == 1
    assert [v["code"] for v in payload["new"]] == ["REP005"]
    assert payload["baselined"] == []


def test_cli_list_rules_exits_zero(capsys):
    assert main(["--list-rules"]) == 0
    text = capsys.readouterr().out
    for code in ("REP001", "REP002", "REP003", "REP004", "REP005",
                 "REP006", "REP008"):
        assert code in text
    assert "REP007" not in text


def test_repro_lint_and_module_entry_share_one_parser(capsys):
    """``repro lint --help`` and ``python -m repro.devtools.lint --help``
    list the same options."""
    def options(entry, argv):
        with pytest.raises(SystemExit):
            entry(argv)
        return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))

    via_repro = options(repro_main, ["lint", "--help"])
    assert "--format" in via_repro and "--list-rules" in via_repro
    assert via_repro == options(main, ["--help"])


def test_unknown_select_code_exits_2(tmp_path, capsys):
    path = tmp_path / IN_SCOPE
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n")
    # REP007 (registry conformance) was retired; it is unknown now.
    for code in ("REP999", "REP007"):
        err = io.StringIO()
        assert run_lint([str(path)], root=tmp_path, select=code,
                        out=io.StringIO(), err=err) == 2
        message = err.getvalue()
        assert "unknown rule code" in message and code in message
        assert "--list-rules" in message
    # Mixed known/unknown still refuses, naming only the unknown ones.
    err = io.StringIO()
    assert run_lint([str(path)], root=tmp_path, select="REP005,BOGUS",
                    out=io.StringIO(), err=err) == 2
    assert "BOGUS" in err.getvalue()
    assert "REP005" not in err.getvalue().replace("BOGUS", "")
    # And through the argparse surface.
    assert main([str(path), "--select", "NOPE"]) == 2


def test_write_baseline_on_clean_tree_is_empty_and_stable(tmp_path):
    path = tmp_path / IN_SCOPE
    path.parent.mkdir(parents=True)
    path.write_text("CLEAN = 1\n")
    baseline_path = tmp_path / ".repro-lint-baseline"
    assert run_lint([str(path)], root=tmp_path, update_baseline=True,
                    out=io.StringIO()) == 0
    assert baseline_path.exists()
    first = baseline_path.read_text(encoding="utf-8")
    assert load_baseline(baseline_path) == {}
    # A second snapshot is byte-identical: the workflow is idempotent.
    assert run_lint([str(path)], root=tmp_path, update_baseline=True,
                    out=io.StringIO()) == 0
    assert baseline_path.read_text(encoding="utf-8") == first


# -- plumbing -----------------------------------------------------------


def test_module_name_resolution(tmp_path):
    assert module_name(
        tmp_path / "src/repro/features/cache.py") == "repro.features.cache"
    assert module_name(
        tmp_path / "src/repro/features/__init__.py") == "repro.features"
    assert module_name(tmp_path / "tests/test_x.py") is None


def test_import_map_resolution():
    tree = ast.parse(
        "import numpy as np\n"
        "from time import time\n"
        "np.random.choice([1])\n"
        "self.rng.choice([1])\n"
        "time()\n")
    imports = ImportMap.of(tree)
    calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
    resolved = {imports.resolve_call(f) for f in calls}
    assert resolved == {"numpy.random.choice", "time.time", None}


def test_parse_module_returns_context_for_valid_source(tmp_path):
    path = tmp_path / "src/repro/mod.py"
    path.parent.mkdir(parents=True)
    path.write_text("x = 1\n")
    ctx, error = parse_module(path, "src/repro/mod.py")
    assert error is None
    assert ctx.module == "repro.mod"
    assert ctx.line_text(1) == "x = 1"


# -- the repo itself ----------------------------------------------------


def test_repo_lint_is_clean_with_baseline():
    """``repro lint src tests benchmarks`` gates CI; it must pass here."""
    out = io.StringIO()
    code = run_lint([], root=REPO_ROOT, out=out)
    assert code == 0, f"repo lint failed:\n{out.getvalue()}"


def test_seeding_a_violation_is_caught(tmp_path):
    """The acceptance scenario: a bare np.random call fails the lint."""
    victim = tmp_path / "src/repro/features/columnar.py"
    victim.parent.mkdir(parents=True)
    victim.write_text(
        (REPO_ROOT / "src/repro/features/columnar.py").read_text()
        + "\n_BAD = np.random.choice([1, 2, 3])\n")
    out = io.StringIO()
    code = run_lint([str(victim)], root=tmp_path, no_baseline=True, out=out)
    assert code == 1
    assert "REP001" in out.getvalue()


# -- typed public API ---------------------------------------------------

#: Packages pinned to mypy's disallow_untyped_defs in pyproject.toml.
STRICT_PACKAGES = ("blocking", "data", "features", "similarity", "serve",
                   "monitor", "resolve", "devtools")
#: Single modules (not packages) held to the same bar.
STRICT_MODULES = ("concurrency",)


def _unannotated_defs(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg not in ("self", "cls") and arg.annotation is None:
                yield f"{node.name}:{node.lineno} parameter {arg.arg}"
        for extra in (args.vararg, args.kwarg):
            if extra is not None and extra.annotation is None:
                yield f"{node.name}:{node.lineno} parameter *{extra.arg}"
        if node.returns is None and node.name != "__init__":
            yield f"{node.name}:{node.lineno} return type"


@pytest.mark.parametrize("target", STRICT_PACKAGES + STRICT_MODULES)
def test_strict_packages_are_fully_annotated(target):
    """Local stand-in for the CI mypy gate (mypy is not vendored): every
    def in the strict packages carries complete annotations."""
    base = REPO_ROOT / "src/repro" / target
    paths = (sorted(base.rglob("*.py")) if base.is_dir()
             else [base.with_suffix(".py")])
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for item in _unannotated_defs(tree):
            missing.append(f"{path.relative_to(REPO_ROOT)}: {item}")
    assert missing == [], (
        "unannotated defs in a mypy-strict package:\n" + "\n".join(missing))


def test_mypy_config_covers_strict_packages():
    """pyproject's strict override must name every package the
    annotation test enforces (keep the two lists in lockstep)."""
    config = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for package in STRICT_PACKAGES:
        assert f'"repro.{package}.*"' in config
    for module in STRICT_MODULES:
        assert f'"repro.{module}"' in config
    assert "disallow_untyped_defs = true" in config
