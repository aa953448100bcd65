"""The per-file REP rules (REP001–REP006 and REP008).

Each rule walks one parsed module and yields
:class:`~repro.devtools.base.Violation` findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .base import ImportMap, ModuleContext, Rule, Violation

#: ``numpy.random`` attributes that *construct* seeded generators (or
#: are seed plumbing) rather than draw from the hidden global stream.
_SEEDED_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: ``random`` module attributes that are classes a caller can seed.
_SEEDED_RANDOM_CLASSES = frozenset({"Random"})


class UnseededRandomness(Rule):
    """REP001: randomness that bypasses the injected seeded Generator.

    Module-level ``np.random.*`` / ``random.*`` calls draw from hidden
    global state, so trial replay (``resume_from``) and cached-feature
    reuse stop being deterministic the moment one sneaks in.  Methods
    on an injected ``np.random.Generator`` (``rng.choice(...)``) are
    fine and are not flagged.

    Constructing a generator *without a seed* is flagged too:
    ``np.random.default_rng()`` / ``RandomState()`` / ``random.Random()``
    with no arguments seed from OS entropy, so everything derived from
    them — minhash permutations, LSH buckets, sampled trials — changes
    every run while looking injected.
    """

    code = "REP001"
    summary = "unseeded global randomness"
    hint = ("thread a seeded np.random.Generator through instead "
            "(np.random.default_rng(seed) / a random_state parameter)")

    @staticmethod
    def _is_unseeded_construction(node: ast.Call) -> bool:
        """A generator construction with no seed material at all."""
        return not node.args and not node.keywords

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        imports = ImportMap.of(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve_call(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[:2] == ["numpy", "random"] and len(parts) > 2:
                if parts[2] not in _SEEDED_CONSTRUCTORS:
                    yield self.violation(
                        ctx, node,
                        f"call to {dotted} draws from numpy's hidden "
                        f"global random state")
                elif self._is_unseeded_construction(node):
                    yield self.violation(
                        ctx, node,
                        f"{dotted}() without a seed draws its state from "
                        f"OS entropy; pass an explicit seed")
            elif parts[0] == "random" and len(parts) > 1:
                if parts[1] not in _SEEDED_RANDOM_CLASSES:
                    yield self.violation(
                        ctx, node,
                        f"call to {dotted} draws from the stdlib's hidden "
                        f"global random state")
                elif self._is_unseeded_construction(node):
                    yield self.violation(
                        ctx, node,
                        f"{dotted}() without a seed draws its state from "
                        f"OS entropy; pass an explicit seed")


#: Canonical call targets whose result depends on the wall clock, the
#: process environment or OS entropy — none may influence a hashed path.
_IMPURE_CALLS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getenv", "os.getlogin", "os.getpid",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom", "secrets.token_bytes", "secrets.token_hex",
})


class WallClockInHashedPath(Rule):
    """REP002: wall-clock / env-dependent calls in fingerprint paths.

    Block-index (record chain and blocker config) and ``ModelBundle``
    fingerprints must digest *content only*: a timestamp or environment
    read in those modules silently turns equal inputs into distinct
    cache keys (or equal bundles into distinct fingerprints).  Scoped to every package that defines a
    fingerprint or cache key (``tests/test_devtools_lint.py`` checks
    that none lives elsewhere); telemetry and latency measurement
    elsewhere may use clocks freely (``time.monotonic``/``perf_counter``
    are never flagged).

    :mod:`repro.monitor` is deliberately out of scope: staleness
    triggers compare ``exported_at`` against the wall clock by design,
    and nothing in the monitoring layer feeds a fingerprint.
    """

    code = "REP002"
    summary = "wall-clock or environment dependence in a hashed path"
    hint = ("keep fingerprint/cache/feature code content-pure; take "
            "timestamps in telemetry layers and pass them in as values")
    scope = ("repro.features", "repro.data", "repro.similarity",
             "repro.serve", "repro.blocking", "repro.resolve",
             "repro.devtools")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        imports = ImportMap.of(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = imports.resolve_call(node.func)
                if dotted in _IMPURE_CALLS:
                    yield self.violation(
                        ctx, node, f"call to {dotted} makes this hashed "
                        f"path time- or environment-dependent")
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                base = node.value
                if (isinstance(base, ast.Name)
                        and imports.names.get(base.id) == "os"):
                    yield self.violation(
                        ctx, node, "os.environ read makes this hashed "
                        "path environment-dependent")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:  # bare ``except:``
        return True
    names = []
    if isinstance(kind, ast.Tuple):
        names = [e.id for e in kind.elts if isinstance(e, ast.Name)]
    elif isinstance(kind, ast.Name):
        names = [kind.id]
    return any(name in ("Exception", "BaseException") for name in names)


#: Call targets (terminal attribute/function name) that count as
#: surfacing the failure: logging, telemetry counters, stderr prints.
_HANDLER_SINKS = frozenset({
    "log", "debug", "info", "warning", "warn", "error", "exception",
    "critical", "print", "observe_error", "record", "write", "fail",
    "print_exc", "format_exc",
})


class SilentBroadExcept(Rule):
    """REP003: a broad ``except`` that swallows the failure silently.

    Flags ``except Exception`` / bare ``except`` handlers that neither
    re-raise, nor use the bound exception (the TrialRunner pattern of
    folding it into a result), nor call anything logging-shaped.  Such
    handlers turn real faults into silent wrong answers — the failure
    mode fault isolation was built to avoid.
    """

    code = "REP003"
    summary = "broad except swallows the exception without logging"
    hint = ("re-raise, log with context, or capture the exception into "
            "a result object; narrow the except if only one failure is "
            "expected")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            body_nodes = [n for stmt in node.body for n in ast.walk(stmt)]
            if any(isinstance(n, ast.Raise) for n in body_nodes):
                continue
            if node.name and any(
                    isinstance(n, ast.Name) and n.id == node.name
                    for n in body_nodes):
                continue  # the exception is captured/used, not dropped
            handled = False
            for n in body_nodes:
                if isinstance(n, ast.Call):
                    func = n.func
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else func.id if isinstance(func, ast.Name)
                            else None)
                    if name in _HANDLER_SINKS:
                        handled = True
                        break
            if not handled:
                yield self.violation(ctx, node)


class PickleUnsafeAttribute(Rule):
    """REP004: lambdas / local functions stored on instances.

    ``ModelBundle.save`` pickles the fitted predictor; a lambda or a
    function defined inside another function assigned onto ``self``
    makes the whole object graph unpicklable — but only at export
    time, far from the line that caused it.  Scoped to library code
    under ``repro``; test doubles may monkey-patch freely.
    """

    code = "REP004"
    summary = "pickle-unsafe callable stored on an instance"
    hint = ("use a module-level function (or functools.partial of one) "
            "so objects reaching ModelBundle stay picklable")
    scope = ("repro.",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = {
                n.name for stmt in func.body for n in ast.walk(stmt)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not any(
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self" for t in targets):
                    continue
                if any(isinstance(n, ast.Lambda) for n in ast.walk(value)):
                    yield self.violation(
                        ctx, node, "lambda assigned to an instance "
                        "attribute cannot be pickled")
                elif (isinstance(value, ast.Name)
                        and value.id in local_defs):
                    yield self.violation(
                        ctx, node,
                        f"locally-defined {value.id!r} assigned to an "
                        f"instance attribute cannot be pickled")


class FloatEquality(Rule):
    """REP005: ``==`` / ``!=`` against a float literal.

    Scores, probabilities and feature values accumulate rounding; an
    exact comparison that happens to hold today breaks on the next
    re-ordering of a sum.  Comparisons that are genuinely exact
    (binary fractions produced without arithmetic) may be suppressed
    inline with a justification.
    """

    code = "REP005"
    summary = "float equality comparison"
    hint = ("use math.isclose / np.isclose (or pytest.approx in tests); "
            "suppress inline if the value is exact by construction")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            for side in [node.left, *node.comparators]:
                if (isinstance(side, ast.Constant)
                        and type(side.value) is float):
                    yield self.violation(
                        ctx, node,
                        f"float equality comparison with {side.value!r}")
                    break


class MutableDefaultArgument(Rule):
    """REP006: mutable default argument values.

    A ``[]`` / ``{}`` default is created once at definition time and
    shared across calls — state leaks between independent runs, which
    is exactly the cross-trial contamination the runner isolates
    against.
    """

    code = "REP006"
    summary = "mutable default argument"
    hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                                "defaultdict", "Counter", "OrderedDict"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._MUTABLE_CALLS)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults
                            if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx, default,
                        "mutable default argument is shared across calls")


class EventLogHandleBypass(Rule):
    """REP008: direct access to an EventLog's private file handle.

    ``EventLog.event`` serializes writes under a lock so concurrent
    writers (the serving thread, caller threads that drive a
    ``StreamMatcher`` directly, a racing ``close``) emit whole
    JSONL lines.  Reaching for ``._fh`` from outside the class bypasses
    that lock and reintroduces interleaved lines — all file access must
    go through ``event()`` / ``close()``.  Only the defining module
    (``repro.events``) may touch the handle.
    """

    code = "REP008"
    summary = "EventLog._fh accessed outside repro.events"
    hint = ("go through EventLog.event()/close(); they hold the lock "
            "that keeps JSONL lines whole under concurrent writers")
    scope = ("repro.",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module == "repro.events":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "_fh":
                yield self.violation(
                    ctx, node,
                    "'._fh' access bypasses the EventLog write lock")


#: Every per-file rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomness(),
    WallClockInHashedPath(),
    SilentBroadExcept(),
    PickleUnsafeAttribute(),
    FloatEquality(),
    MutableDefaultArgument(),
    EventLogHandleBypass(),
)
