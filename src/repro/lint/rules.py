"""The project-specific lint rules.

Each rule guards one invariant the paper's correctness claims depend on
(see DESIGN.md "Correctness tooling"):

* ``float-equality`` — periods and weights are floats rederived through
  different summation orders; bare ``==`` on them is a latent bug.
* ``frozen-mutation`` — :class:`~repro.core.task.TaskChain` and
  :class:`~repro.core.stage.Stage` are value objects; mutating them breaks
  fingerprint-keyed memoization.
* ``error-hierarchy`` — core raises only :mod:`repro.core.errors` types so
  callers can catch one family.
* ``determinism`` — the engine guarantees bitwise-identical campaigns for
  any ``--jobs``; wall-clock, global RNGs, and hash-ordered iteration in
  solver paths would silently void that guarantee.
* ``numpy-scalar-leak`` — public core APIs return Python scalars, not
  ``np.float64`` (which pickles bigger, compares oddly with ``is``, and
  leaks dtype decisions to callers).
* ``broad-except`` — ``except:`` and ``except BaseException`` swallow
  ``KeyboardInterrupt``/``SystemExit``; only the resilience layer (whose
  contract is to classify and re-raise them) may catch that broadly.
* ``raw-timing`` — every timing decision routes through the observability
  clock (:mod:`repro.obs.clock`), so what a timestamp means is decided in
  exactly one audited module; scattered ``time.perf_counter()`` calls
  fragment that authority.
* ``two-type-assumption`` — the platform layer is k-type; code that
  hard-codes exactly two core types (``CoreType.other``, ``is`` identity
  checks against ``CoreType`` members, literal ``(BIG, LITTLE)``
  enumerations) silently breaks on k > 2 budgets, except inside the
  sanctioned k = 2 shims that guard themselves with an explicit ktype
  check.

All rules are heuristic AST checks: they prefer false negatives over false
positives, and intentional exceptions carry a per-line
``# lint: ignore[rule-name]`` pragma next to a justification.  Each rule's
``explanation`` (``repro lint --explain``) names its invariant, what else
holds it, and the change it caught (DESIGN.md §13 keeps the same census).
Retired ids stay retired: REP106 went to ``mypy --strict``, REP107 to
ruff's ``T10``/``T20``, REP108 to the pickling of every dispatch on the
``--jobs 2`` tier-1 path.
"""

from __future__ import annotations

import ast

from .base import FileContext, LintRule, dotted_name, leaf_name, register

__all__ = [
    "FloatEqualityRule",
    "FrozenMutationRule",
    "ErrorHierarchyRule",
    "DeterminismRule",
    "NumpyScalarLeakRule",
    "BroadExceptRule",
    "RawTimingRule",
    "TwoTypeAssumptionRule",
]


def _tokens(identifier: str) -> set[str]:
    """Lower-cased underscore tokens of an identifier."""
    return {t for t in identifier.lower().split("_") if t}


# ---------------------------------------------------------------------------
# REP101 — float-equality
# ---------------------------------------------------------------------------

#: Identifier tokens that mark an expression as a float period/weight value.
_FLOAT_TOKENS = frozenset(
    {
        "period",
        "periods",
        "weight",
        "weights",
        "latency",
        "latencies",
        "slowdown",
        "epsilon",
        "eps",
        "pbest",
        "throughput",
    }
)

#: Calls whose result is a float period/weight quantity.
_FLOAT_CALLS = frozenset(
    {
        "period",
        "weight",
        "latency",
        "throughput",
        "stage_weight",
        "interval_weight",
        "total_weight",
        "max_weight",
        "max_sequential_weight",
        "weight_of",
        "midpoint",
        "search_epsilon",
        "norep_period",
        "solution_power",
    }
)


def _is_infinity(node: ast.expr) -> bool:
    """True for expressions that denote +/-inf (exact comparison is sound)."""
    if isinstance(node, ast.UnaryOp):
        return _is_infinity(node.operand)
    ident = leaf_name(node)
    if ident is not None and ident.lower() in {"inf", "infinity", "_inf"}:
        return True
    if isinstance(node, ast.Call) and leaf_name(node.func) == "float":
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            return isinstance(value, str) and value.strip("+-").lower() in {
                "inf",
                "infinity",
            }
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value != node.value or abs(node.value) == float("inf")
    return False


def _is_float_flavored(node: ast.expr) -> bool:
    """Heuristic: does this expression hold a float period/weight?"""
    if isinstance(node, ast.Call):
        ident = leaf_name(node.func)
        return ident in _FLOAT_CALLS
    ident = leaf_name(node)
    if ident is not None and _tokens(ident) & _FLOAT_TOKENS:
        return True
    return False


@register
class FloatEqualityRule(LintRule):
    """Bare ``==``/``!=`` between float period/weight expressions."""

    id = "REP101"
    name = "float-equality"
    description = (
        "periods/weights are floats accumulated in different orders; "
        "compare them with math.isclose or an explicit epsilon, never =="
    )
    hint = (
        "use math.isclose(a, b, rel_tol=...) or abs(a - b) <= eps; "
        "exact comparison against math.inf is fine"
    )
    explanation = (
        "Invariant: periods/weights are compared with a tolerance (a "
        "re-derived sum differs by ULPs). Also held by: nothing. Caught: "
        "none recorded."
    )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if (
            has_eq
            and not any(_is_infinity(o) for o in operands)
            and any(_is_float_flavored(o) for o in operands)
        ):
            self.report(
                node,
                "float equality on a period/weight expression "
                "(results differ across summation orders by ULPs)",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP102 — frozen-mutation
# ---------------------------------------------------------------------------

#: Fields of the frozen value objects (TaskChain / Task / Stage / Solution).
_FROZEN_FIELDS = frozenset(
    {
        "tasks",
        "stages",
        "weight_big",
        "weight_little",
        "replicable",
        "cores",
        "core_type",
    }
)


@register
class FrozenMutationRule(LintRule):
    """Mutation of ``TaskChain``/``Stage`` fields outside their constructors."""

    id = "REP102"
    name = "frozen-mutation"
    description = (
        "TaskChain/Stage/Solution are frozen value objects; field writes "
        "outside their own constructors corrupt fingerprint-keyed caches"
    )
    hint = (
        "build a new object instead (e.g. Stage.with_cores, "
        "TaskChain.from_weights); object.__setattr__ is reserved for the "
        "owning class's __init__/__post_init__ and internal caches"
    )
    explanation = (
        "Invariant: the fingerprinted value objects are never mutated. Also "
        "held by: @dataclass(frozen=True), for plain writes that run; not "
        "object.__setattr__. Caught: none recorded."
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._class_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._check_target(element)
            return
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in _FROZEN_FIELDS:
            return
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return  # a class managing its own (non-frozen) state
        self.report(
            target,
            f"assignment to {target.attr!r}, a field of a frozen "
            "scheduling value object",
        )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            dotted_name(node.func) == "object.__setattr__"
            and node.args
            and not (
                isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
                and self._class_depth > 0
            )
        ):
            self.report(
                node,
                "object.__setattr__ on a foreign object bypasses frozen "
                "dataclass protection",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP103 — error-hierarchy
# ---------------------------------------------------------------------------

#: Builtin exceptions whose use in core signals a hierarchy escape.
_BANNED_RAISES = frozenset(
    {
        "ValueError",
        "TypeError",
        "KeyError",
        "RuntimeError",
        "Exception",
        "ArithmeticError",
        "LookupError",
        "IndexError",
        "AssertionError",
    }
)


@register
class ErrorHierarchyRule(LintRule):
    """Core modules must raise only the ``repro.core.errors`` hierarchy."""

    id = "REP103"
    name = "error-hierarchy"
    description = (
        "solver entry points raise only repro.core.errors types so callers "
        "can catch one family (the domain errors subclass ValueError/"
        "KeyError where builtin-compatibility matters)"
    )
    hint = (
        "raise InvalidChainError / InvalidPlatformError / "
        "InvalidParameterError / UnknownStrategyError (see "
        "repro.core.errors) instead of a bare builtin exception"
    )
    explanation = (
        "Invariant: repro.core raises only repro.core.errors types. Also "
        "held by: the tests' pytest.raises, on the paths they run. Caught: "
        "none recorded."
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_core

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call):
            name = leaf_name(exc.func)
        elif exc is not None:
            name = leaf_name(exc)
        if name is not None and name in _BANNED_RAISES:
            self.report(
                node,
                f"core code raises builtin {name} instead of a "
                "repro.core.errors type",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP104 — determinism
# ---------------------------------------------------------------------------

#: Dotted call names that inject wall-clock or entropy into a solve.  The
#: ``time.*`` clocks are not here: REP110 flags every one of them in every
#: module outside ``repro.obs.clock`` and ``repro.obs.profile``, which covers
#: the solver paths, so listing them here would report one call twice.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


#: Filesystem-enumeration calls whose result order is OS-dependent: ext4,
#: APFS, and NFS each hand back directory entries in their own order, so
#: iterating them unsorted is the same bug class as set-order iteration.
_FS_ORDER_CALLS = frozenset(
    {"os.listdir", "listdir", "glob.glob", "glob.iglob", "glob", "iglob", "scandir", "os.scandir"}
)


@register
class DeterminismRule(LintRule):
    """No wall-clock, global RNG, or hash-ordered iteration in solver paths."""

    id = "REP104"
    name = "determinism"
    description = (
        "repro/core and repro/engine must be bitwise deterministic for any "
        "--jobs: no datetime.now, no global/unseeded RNG, no set-order "
        "iteration, no unsorted directory listings, no dict.popitem "
        "(time.* clock reads are REP110's)"
    )
    hint = (
        "thread an explicit seeded np.random.default_rng(seed) through the "
        "call, and iterate sorted() or list-ordered collections"
    )
    explanation = (
        "Invariant: same bits on every run and for any --jobs. Also held "
        "by: the --jobs parity tests and the artefact and sim digests, on "
        "the paths they run. Caught: none recorded."
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_solver_paths

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
            and not node.args
            and not node.keywords
        ):
            # OrderedDict.popitem(last=...) states its direction explicitly
            # and stays legal; a bare popitem() pops in insertion-order-
            # dependent LIFO order, which silently couples results to fill
            # order.
            self.report(
                node,
                "bare popitem() pops in fill-order-dependent order",
                hint=(
                    "pop an explicit key, or use OrderedDict.popitem("
                    "last=...) to state the direction"
                ),
            )
        if dotted is not None:
            if dotted in _NONDETERMINISTIC_CALLS:
                self.report(
                    node, f"call to {dotted}() in a deterministic solver path"
                )
            elif dotted.startswith("random."):
                self.report(
                    node,
                    f"global random module call {dotted}() (shared, "
                    "seed-order dependent state)",
                )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                tail = dotted.rsplit(".", 1)[1]
                if tail == "default_rng":
                    if not node.args and not node.keywords:
                        self.report(
                            node,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded",
                        )
                elif tail not in {"Generator", "SeedSequence"}:
                    self.report(
                        node,
                        f"legacy global numpy RNG {dotted}() (hidden "
                        "process-wide state)",
                    )
            elif dotted in {"random", "secrets.token_bytes", "secrets.token_hex"}:
                self.report(node, f"entropy source {dotted}()")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _check_iteration(self, iterable: ast.expr) -> None:
        if isinstance(iterable, ast.Set):
            self.report(
                iterable,
                "iteration over a set literal has hash-dependent order",
                hint="iterate a tuple/list, or sorted(...) the set",
            )
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in {"set", "frozenset"}
        ):
            self.report(
                iterable,
                f"iteration over {iterable.func.id}(...) has "
                "hash-dependent order",
                hint="iterate a tuple/list, or sorted(...) the set",
            )
        elif isinstance(iterable, ast.Call):
            dotted = dotted_name(iterable.func)
            if dotted in _FS_ORDER_CALLS:
                self.report(
                    iterable,
                    f"iteration over unsorted {dotted}(...) follows the "
                    "filesystem's directory order, which differs across "
                    "OSes and mounts",
                    hint=f"wrap it: sorted({dotted}(...))",
                )


# ---------------------------------------------------------------------------
# REP105 — numpy-scalar-leak
# ---------------------------------------------------------------------------

#: Method names that are numpy reductions (return np scalars on arrays).
_NP_REDUCTIONS = frozenset(
    {"max", "min", "sum", "mean", "prod", "ptp", "std", "var", "dot", "trace"}
)

#: Identifiers that conventionally hold numpy arrays in this codebase.
_ARRAYISH = frozenset(
    {
        "p",
        "pb",
        "pl",
        "wb",
        "wl",
        "prefix",
        "weights",
        "arr",
        "array",
        "plane",
        "cand",
        "per_task_min",
        "periods",
        "nxt",
        "next_sequential",
    }
)


def _subscripts_arrayish(node: ast.expr) -> bool:
    """True when the expression subscripts an array-conventional name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            base = leaf_name(sub.value)
            if base is not None and base in _ARRAYISH:
                return True
    return False


@register
class NumpyScalarLeakRule(LintRule):
    """Public core APIs must not return raw numpy scalars."""

    id = "REP105"
    name = "numpy-scalar-leak"
    description = (
        "public core functions annotated -> float/int must wrap numpy "
        "reductions and array subscripts in float()/int(): np.float64 "
        "leaks dtypes into caches, JSON, and equality checks"
    )
    hint = "wrap the returned expression in float(...) or int(...)"
    explanation = (
        "Invariant: a public core float/int function returns a Python "
        "scalar. Also held by: nothing (np.float64 subclasses float). "
        "Caught: none recorded."
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._class_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("_"):
            return
        if any(cls.startswith("_") for cls in self._class_stack):
            return
        returns = node.returns
        if not (
            isinstance(returns, ast.Name) and returns.id in {"float", "int"}
        ) and not (
            isinstance(returns, ast.Constant)
            and returns.value in {"float", "int"}
        ):
            return
        for stmt in self._own_returns(node):
            value = stmt.value
            if value is None:
                continue
            if isinstance(value, ast.Call) and leaf_name(value.func) in {
                "float",
                "int",
                "bool",
                "len",
                "round",
            }:
                continue
            if self._leaks(value):
                self.report(
                    stmt,
                    f"{node.name}() is annotated -> "
                    f"{ast.unparse(returns)} but returns an unwrapped "
                    "numpy expression",
                )

    @staticmethod
    def _own_returns(func: ast.FunctionDef) -> "list[ast.Return]":
        """Return statements of ``func`` itself (not of nested functions)."""
        returns: list[ast.Return] = []
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Return):
                returns.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return returns

    @staticmethod
    def _leaks(value: ast.expr) -> bool:
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None and dotted.startswith(("np.", "numpy.")):
                return True
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr in _NP_REDUCTIONS
            ):
                return True
        if isinstance(value, (ast.Subscript, ast.BinOp)):
            return _subscripts_arrayish(value)
        return False


# ---------------------------------------------------------------------------
# REP109 — broad-except
# ---------------------------------------------------------------------------

#: Modules sanctioned to catch broadly: the resilience layer's whole job is
#: to classify failures, and it re-raises everything non-transient.
_BROAD_EXCEPT_ALLOWED = ("repro.engine.resilience",)


@register
class BroadExceptRule(LintRule):
    """No bare ``except:`` / ``except BaseException`` outside resilience."""

    id = "REP109"
    name = "broad-except"
    description = (
        "bare except and except BaseException swallow KeyboardInterrupt "
        "and SystemExit, breaking Ctrl-C and pool shutdown; only "
        "repro.engine.resilience (which classifies and re-raises) may "
        "catch that broadly"
    )
    hint = (
        "catch Exception (or a narrower type); if the handler must "
        "observe KeyboardInterrupt, route the work through "
        "repro.engine.resilience instead"
    )
    explanation = (
        "Invariant: only repro.engine.resilience catches KeyboardInterrupt. "
        "Also held by: ruff E722, for bare `except:` only. Caught: none "
        "recorded (the streampu runtime's handlers got pragmas when it came "
        "in)."
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro") and ctx.module not in (
            _BROAD_EXCEPT_ALLOWED
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' catches BaseException, including "
                "KeyboardInterrupt and SystemExit",
            )
        else:
            for exc in self._named_exceptions(node.type):
                if leaf_name(exc) == "BaseException":
                    self.report(
                        node,
                        "'except BaseException' swallows KeyboardInterrupt "
                        "and SystemExit",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _named_exceptions(node: ast.expr) -> "list[ast.expr]":
        if isinstance(node, ast.Tuple):
            return list(node.elts)
        return [node]


# ---------------------------------------------------------------------------
# REP110 — raw-timing
# ---------------------------------------------------------------------------

#: Modules sanctioned to read raw clocks, named *exactly* — a new module
#: under ``repro.obs`` does not inherit the exemption by location, it must
#: be added here (with a reason) before it may touch ``time.*`` directly.
_RAW_TIMING_ALLOWED = frozenset(
    {
        # The single timing authority: everything else imports monotonic()
        # and wall() from here.
        "repro.obs.clock",
        # Self-time / flamegraph derivation; operates on recorded spans and
        # is sanctioned so profiling helpers can stay in one module even if
        # one ever needs a raw timestamp.
        "repro.obs.profile",
    }
)

#: ``time``-module functions that read a clock.  ``time.sleep`` is *not*
#: timing (it consumes time, it doesn't measure it) and stays legal.
_CLOCK_READS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)


@register
class RawTimingRule(LintRule):
    """Raw ``time.*`` clock reads outside the observability clock module."""

    id = "REP110"
    name = "raw-timing"
    description = (
        "timing routes through repro.obs.clock (monotonic()/wall()) so the "
        "project has one audited place deciding what a timestamp means; "
        "only the modules named in the sanctioned-clock allowlist read "
        "time.* directly"
    )
    hint = (
        "from repro.obs.clock import monotonic  # durations\n"
        "    (or wall() for display timestamps); time.sleep is fine"
    )
    explanation = (
        "Invariant: every clock read goes through repro.obs.clock. Also "
        "held by: nothing. Caught: when it came in, raw clock reads in the "
        "CLI, executor, ablation, table3 and streampu runtime."
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        if not ctx.module.startswith("repro"):
            return False
        return ctx.module not in _RAW_TIMING_ALLOWED

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # Only names actually bound to the time module (or imported from it)
        # are flagged: a local function named monotonic — e.g. the obs clock
        # imported as `from repro.obs.clock import monotonic` — must not
        # false-positive.
        self._time_aliases: set[str] = set()
        self._clock_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self._time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in _CLOCK_READS:
                            self._clock_names.add(alias.asname or alias.name)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CLOCK_READS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ):
            self.report(
                node,
                f"raw clock read time.{func.attr}() outside repro.obs",
            )
        elif isinstance(func, ast.Name) and func.id in self._clock_names:
            self.report(
                node,
                f"raw clock read {func.id}() (imported from time) outside "
                "repro.obs",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP111 — two-type-assumption
# ---------------------------------------------------------------------------

#: Modules allowed to assume exactly two core types.  Each either *defines*
#: the two-type compatibility surface (``repro.core.types``) or is a paper
#: algorithm specialized to two types behind an explicit ``ktype == 2``
#: guard (HeRAD's DP, its literal-pseudocode oracle and the no-replication
#: optimal).
_SANCTIONED_TWO_TYPE = (
    "repro.core.types",
    "repro.core.herad",
    "repro.core.herad_reference",
    "repro.core.norep",
)


@register
class TwoTypeAssumptionRule(LintRule):
    """Hard-coded two-type platform assumptions outside sanctioned shims."""

    id = "REP111"
    name = "two-type-assumption"
    description = (
        "the platform layer is k-type: CoreType.other, `is` identity checks "
        "against CoreType members, and literal (BIG, LITTLE) enumerations "
        "assume exactly two core classes and silently break on k > 2 "
        "budgets; only the guarded k = 2 shims may assume two types"
    )
    hint = (
        "iterate resources.types() / core_types(ktype), compare type "
        "indices with == (CoreType is an IntEnum; plain int indices carry "
        "no identity), and derive the complement from the index instead of "
        ".other"
    )
    explanation = (
        "Invariant: code outside the k = 2 shims works for any number of "
        "core types. Also held by: tests/core/test_ktype.py, on its paths. "
        "Caught: when it came in, the tree's two-type assumptions."
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro") and not ctx.module.startswith(
            _SANCTIONED_TWO_TYPE
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "other":
            ident = leaf_name(node.value)
            if ident is not None and (
                ident == "CoreType" or "type" in _tokens(ident)
            ):
                self.report(
                    node,
                    "CoreType.other assumes a two-type platform (the "
                    "complement of a type index is undefined for k > 2)",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_identity = any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        )
        if has_identity and any(
            (dotted := dotted_name(operand)) is not None
            and dotted.startswith("CoreType.")
            for operand in operands
        ):
            self.report(
                node,
                "`is` identity check against a CoreType member: k-type "
                "code passes plain int type indices, which never satisfy "
                "enum identity",
            )
        self.generic_visit(node)

    def _check_literal_enumeration(self, node: "ast.Tuple | ast.List") -> None:
        members = {
            dotted_name(element)
            for element in node.elts
            if isinstance(element, ast.Attribute)
        }
        if {"CoreType.BIG", "CoreType.LITTLE"} <= members:
            self.report(
                node,
                "literal (CoreType.BIG, CoreType.LITTLE) enumeration "
                "hard-codes two core types",
            )

    def visit_Tuple(self, node: ast.Tuple) -> None:
        self._check_literal_enumeration(node)
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        self._check_literal_enumeration(node)
        self.generic_visit(node)

