"""The six project-wide rules, REP201-REP206.

Each rule reasons over the :class:`ProjectContext` graphs rather than a
single file, and attaches an evidence chain (definition site -> call path
-> violation site) to every finding so reviewers can audit the reasoning.
All rules prefer a false negative over a false positive: an unresolvable
construct is skipped, never guessed against.
"""

from __future__ import annotations

import ast
import sys

from ..base import register
from ..findings import EvidenceStep
from .base import ProjectRule
from .evidence import call_chain, entry_of
from .model import FunctionFacts

__all__ = [
    "WorkerGlobalWriteRule",
    "LockDisciplineRule",
    "ForkUnsafeCaptureRule",
    "LayerBoundaryRule",
    "MemoPurityRule",
    "DeadPublicSymbolRule",
]

#: Constructors whose instances must never cross a fork/pickle boundary.
_FORK_UNSAFE_CTORS = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
        "Queue",
        "SimpleQueue",
        "LifoQueue",
        "PriorityQueue",
        "local",
        "Thread",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "Pool",
        "open",
        "TextIOWrapper",
        "BufferedWriter",
        "BufferedReader",
        # A live shared-memory mapping must never cross a WorkUnit boundary:
        # a pickled handle re-registers ownership in the child's resource
        # tracker and double-unlinks the segment (attach by name instead).
        "SharedMemory",
    }
)

#: Lock-like constructors recognized by the lock-discipline rule.
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Clock-reading callables (terminal name) outside the sanctioned wrapper.
_CLOCK_NAMES = frozenset(
    {
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "time",
        "time_ns",
        "wall",
        "now",
    }
)

#: Stdlib modules that expose wall/monotonic clocks.
_CLOCK_MODULES = frozenset({"time", "datetime"})

#: Architecture ranks: an import must flow strictly downward (higher rank
#: may import lower rank, never sideways or up).  ``lint`` is rank 0 but
#: additionally restricted to the stdlib by :class:`LayerBoundaryRule`.
LAYER_RANKS: dict[str, int] = {
    "obs": 0,
    "lint": 0,
    "core": 10,
    "platform": 20,
    "workloads": 20,
    "engine": 30,
    "sim": 35,
    "streampu": 40,
    "sdr": 50,
    "analysis": 60,
    "experiments": 70,
    "bench": 75,
    "cli": 80,
    "": 80,
    "__init__": 80,
    "__main__": 90,
}

#: Construction methods exempt from lock discipline (no sharing yet/anymore).
_LOCK_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__", "__repr__"})


def _package_of(module: str) -> "str | None":
    """Second-level package of ``module`` (top package inferred)."""
    parts = module.split(".")
    if len(parts) == 1:
        return ""
    if len(parts) == 2 and parts[1] in ("__init__", "__main__"):
        return parts[1]
    if len(parts) == 2:
        return parts[1]
    return parts[1]


@register
class WorkerGlobalWriteRule(ProjectRule):
    """REP201: module-level mutable state written on a worker-reachable path."""

    id = "REP201"
    name = "worker-global-write"
    description = (
        "module-level mutable state written by a function reachable from a "
        "worker entry point (static race detector)"
    )
    hint = (
        "pass the state through WorkUnit/return values, or make the binding "
        "immutable; workers must not mutate shared module globals"
    )
    explanation = (
        "Builds the over-approximate call graph, seeds it with every "
        "function dispatched to a pool (.map/.submit/.apply_async/...) plus "
        "every registered strategy (strategies execute inside workers), and "
        "flags any reachable function that rebinds a module global or "
        "mutates a module-level mutable binding (dict/list/set literal, "
        "mutable constructor, or non-frozen class instance). Two workers "
        "racing on such state break the engine's bitwise --jobs guarantee."
    )

    def check(self) -> None:
        pctx = self.pctx
        entries = pctx.worker_entry_points()
        reach = pctx.reachable_from(entries)
        seen: set[tuple[str, str, int]] = set()
        for fid in reach:
            func = pctx.functions[fid]
            for write in func.writes:
                resolved = pctx.resolve_module_binding(func.module, write.name)
                if write.kind == "global":
                    reason = "rebinds module global"
                elif resolved is not None and pctx.binding_is_mutable(resolved[1]):
                    reason = {
                        "subscript": "mutates (item assignment)",
                        "attribute": "mutates (attribute assignment)",
                        "mutcall": f"mutates via {write.detail}",
                    }.get(write.kind, "mutates")
                else:
                    continue
                key = (fid, write.name, write.lineno)
                if key in seen:
                    continue
                seen.add(key)
                entry = entry_of(reach, fid)
                evidence = call_chain(
                    pctx, reach, fid, "worker entry point"
                )
                if resolved is not None:
                    home, binding = resolved
                    evidence.insert(
                        0,
                        EvidenceStep(
                            path=pctx.facts[home].rel,
                            line=binding.lineno,
                            note=f"module-level binding `{write.name}` defined here",
                        ),
                    )
                evidence.append(
                    EvidenceStep(
                        path=pctx.facts[func.module].rel,
                        line=write.lineno,
                        note=f"`{func.qualname}` {reason} `{write.name}`",
                    )
                )
                self.report(
                    func.module,
                    write.lineno,
                    f"`{func.qualname}` {reason} `{write.name}`, and is "
                    f"reachable from worker entry "
                    f"`{pctx.functions[entry].qualname}` "
                    f"({entries.get(entry, 'worker entry')})",
                    symbol=write.name,
                    evidence=evidence,
                )


@register
class LockDisciplineRule(ProjectRule):
    """REP202: attrs guarded by a lock in some methods, unguarded in others."""

    id = "REP202"
    name = "lock-discipline"
    description = (
        "attribute guarded by a self-lock in some methods of a class but "
        "accessed unguarded in others"
    )
    hint = (
        "take the same lock around every access, or document why this one "
        "is safe with a per-line pragma"
    )
    explanation = (
        "For every class holding a threading.Lock/RLock attribute, collects "
        "the set of attributes ever accessed inside `with self._lock:` and "
        "flags accesses to those attributes outside the lock in any other "
        "method. Construction methods (__init__/__post_init__) are exempt, "
        "and private helpers invoked exclusively while the lock is held are "
        "treated as lock-held context."
    )

    def check(self) -> None:
        pctx = self.pctx
        for groups in pctx.classes_by_name.values():
            for klass in groups:
                lock_attrs = {
                    attr
                    for attr, ctor in klass.attr_classes
                    if ctor in _LOCK_CTORS
                }
                if not lock_attrs:
                    continue
                self._check_class(klass, lock_attrs)

    def _check_class(self, klass, lock_attrs: set[str]) -> None:
        guard_names = {f"self.{attr}" for attr in lock_attrs}
        method_names = {method.name for method in klass.methods}

        def is_guarded(guards: tuple[str, ...]) -> bool:
            return any(g in guard_names for g in guards)

        # Methods only ever invoked as self.m() while the lock is held are
        # lock-held context themselves (the classic private-helper pattern).
        invocations: dict[str, list[bool]] = {}
        for method in klass.methods:
            for access in method.self_accesses:
                if access.attr in method_names:
                    invocations.setdefault(access.attr, []).append(
                        is_guarded(access.guards)
                    )
        self._lock_held = {
            name
            for name, guarded in invocations.items()
            if guarded and all(guarded)
        }

        guarded_attrs: dict[str, tuple[str, int]] = {}  # attr -> witness site
        for method in klass.methods:
            for access in method.self_accesses:
                if (
                    access.attr not in lock_attrs
                    and access.attr not in method_names
                    and is_guarded(access.guards)
                    and access.attr not in guarded_attrs
                ):
                    guarded_attrs[access.attr] = (method.name, access.lineno)

        reported: set[tuple[str, str]] = set()
        for method in klass.methods:
            if (
                method.name in _LOCK_EXEMPT_METHODS
                or method.name in self._lock_held
            ):
                continue
            for access in method.self_accesses:
                if (
                    access.attr in guarded_attrs
                    and not is_guarded(access.guards)
                    and (method.name, access.attr) not in reported
                ):
                    reported.add((method.name, access.attr))
                    witness_method, witness_line = guarded_attrs[access.attr]
                    rel = self.pctx.facts[klass.module].rel
                    lock = sorted(lock_attrs)[0]
                    self.report(
                        klass.module,
                        access.lineno,
                        f"`{klass.name}.{method.name}` accesses "
                        f"`self.{access.attr}` without holding "
                        f"`self.{lock}`, which guards it in "
                        f"`{klass.name}.{witness_method}`",
                        symbol=f"{klass.name}.{method.name}",
                        evidence=[
                            EvidenceStep(
                                path=rel,
                                line=klass.lineno,
                                note=f"`{klass.name}` holds lock `self.{lock}`",
                            ),
                            EvidenceStep(
                                path=rel,
                                line=witness_line,
                                note=(
                                    f"`self.{access.attr}` guarded by "
                                    f"`self.{lock}` in `{witness_method}`"
                                ),
                            ),
                            EvidenceStep(
                                path=rel,
                                line=access.lineno,
                                note=f"unguarded access in `{method.name}`",
                            ),
                        ],
                    )

    _lock_held: set[str] = set()


@register
class ForkUnsafeCaptureRule(ProjectRule):
    """REP203: fork-unsafe objects flowing into process-tier work units."""

    id = "REP203"
    name = "fork-unsafe-capture"
    description = (
        "object holding a lock/file handle/thread flows into a WorkUnit or "
        "a worker dispatch call"
    )
    hint = (
        "ship a picklable config snapshot across the boundary and "
        "reconstruct the stateful object inside the worker"
    )
    explanation = (
        "Computes the transitive closure of fork-unsafe classes (holding "
        "threading primitives, file handles, pools, or other fork-unsafe "
        "project classes) and flags any such value passed into a WorkUnit "
        "constructor or directly into a pool dispatch call. Locks and "
        "handles do not survive pickling into a process worker."
    )

    def check(self) -> None:
        pctx = self.pctx
        unsafe = self._unsafe_classes()
        boundary = self._boundary_class_names()
        for module, ctx in pctx.files.items():
            self._scan_module(module, ctx.tree, unsafe, boundary)
        for site in pctx.dispatch_sites:
            func = self._enclosing(site.module, site.lineno)
            if func is None:
                continue
            for name in site.arg_names:
                cname = pctx.resolve_value_class(func, name)
                if cname is None:
                    continue
                reason = self._unsafety(cname, unsafe)
                if reason is None:
                    continue
                self._report_capture(
                    site.module, site.lineno, name, cname, reason, unsafe,
                    f"passed to a worker pool .{site.method}() call",
                )

    def _unsafe_classes(self) -> dict[str, str]:
        unsafe: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for name, groups in self.pctx.classes_by_name.items():
                if name in unsafe:
                    continue
                for klass in groups:
                    for attr, ctor in klass.attr_classes:
                        if ctor in _FORK_UNSAFE_CTORS:
                            unsafe[name] = f"`{name}.{attr}` holds `{ctor}`"
                            changed = True
                        elif ctor in unsafe:
                            unsafe[name] = (
                                f"`{name}.{attr}` holds `{ctor}`; {unsafe[ctor]}"
                            )
                            changed = True
                        if name in unsafe:
                            break
                    if name in unsafe:
                        break
        return unsafe

    def _unsafety(self, cname: str, unsafe: dict[str, str]) -> "str | None":
        if cname in _FORK_UNSAFE_CTORS:
            return f"`{cname}` is fork-unsafe"
        return unsafe.get(cname)

    def _boundary_class_names(self) -> set[str]:
        names = {"WorkUnit"}
        for fid in self.pctx.worker_entry_points():
            func = self.pctx.functions.get(fid)
            if func is None:
                continue
            for _, tokens in func.param_annotations:
                for token in tokens:
                    if token in self.pctx.frozen_class_names:
                        names.add(token)
        return names

    def _enclosing(self, module: str, lineno: int) -> "FunctionFacts | None":
        best: "FunctionFacts | None" = None
        facts = self.pctx.facts.get(module)
        if facts is None:
            return None
        for func in facts.functions:
            if func.lineno <= lineno <= func.end_lineno:
                if best is None or func.lineno > best.lineno:
                    best = func
        return best

    def _scan_module(
        self,
        module: str,
        tree: ast.Module,
        unsafe: dict[str, str],
        boundary: set[str],
    ) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            leaf = _call_leaf(node)
            if leaf not in boundary:
                continue
            func = self._enclosing(module, node.lineno)
            values = [*node.args, *(kw.value for kw in node.keywords)]
            for value in values:
                cname: "str | None" = None
                name = ""
                if isinstance(value, ast.Name):
                    name = value.id
                    if func is not None:
                        cname = self.pctx.resolve_value_class(func, name)
                elif isinstance(value, ast.Call):
                    cname = _call_leaf(value)
                    name = f"{cname}()" if cname else ""
                if cname is None:
                    continue
                reason = self._unsafety(cname, unsafe)
                if reason is None:
                    continue
                self._report_capture(
                    module, node.lineno, name or cname, cname, reason, unsafe,
                    f"captured by `{leaf}(...)` (crosses the process boundary)",
                )

    def _report_capture(
        self,
        module: str,
        lineno: int,
        name: str,
        cname: str,
        reason: str,
        unsafe: dict[str, str],
        how: str,
    ) -> None:
        evidence = []
        groups = self.pctx.classes_by_name.get(cname, ())
        if groups:
            klass = groups[0]
            evidence.append(
                EvidenceStep(
                    path=self.pctx.facts[klass.module].rel,
                    line=klass.lineno,
                    note=f"fork-unsafe class: {reason}",
                )
            )
        evidence.append(
            EvidenceStep(
                path=self.pctx.facts[module].rel,
                line=lineno,
                note=f"`{name}` {how}",
            )
        )
        self.report(
            module,
            lineno,
            f"fork-unsafe `{name}` ({reason}) {how}",
            symbol=cname,
            evidence=evidence,
        )


@register
class LayerBoundaryRule(ProjectRule):
    """REP204: the architecture layering contract, machine-checked."""

    id = "REP204"
    name = "layer-boundary"
    description = (
        "import that inverts the architecture layering (obs < core < "
        "platform/workloads < engine < streampu < sdr < analysis < "
        "experiments < cli); lint imports stdlib only"
    )
    hint = (
        "depend downward: move the shared code into the lower layer or "
        "invert the dependency with a callback/protocol"
    )
    explanation = (
        "Assigns every second-level package a rank and requires each "
        "intra-project import to flow strictly downward (importer rank > "
        "importee rank, same package exempt). The lint package is held to a "
        "stricter contract: stdlib imports only, so the analyzer can never "
        "depend on the code it checks."
    )

    def check(self) -> None:
        pctx = self.pctx
        tops = {module.split(".", 1)[0] for module in pctx.facts}
        for module, mod_facts in sorted(pctx.facts.items()):
            src_pkg = _package_of(module)
            if src_pkg == "lint":
                self._check_lint_module(module, mod_facts, tops)
                continue
            if src_pkg is None or src_pkg not in LAYER_RANKS:
                continue
            for record in mod_facts.imports:
                tgt_top = record.target.split(".", 1)[0]
                if tgt_top not in tops:
                    continue
                tgt_pkg = _package_of(record.target)
                if tgt_pkg is None or tgt_pkg not in LAYER_RANKS:
                    continue
                if tgt_pkg == src_pkg:
                    continue
                if LAYER_RANKS[src_pkg] > LAYER_RANKS[tgt_pkg]:
                    continue
                direction = (
                    "sideways"
                    if LAYER_RANKS[src_pkg] == LAYER_RANKS[tgt_pkg]
                    else "upward"
                )
                self.report(
                    module,
                    record.lineno,
                    f"`{module}` (layer `{src_pkg or 'root'}`, rank "
                    f"{LAYER_RANKS[src_pkg]}) imports `{record.target}` "
                    f"(layer `{tgt_pkg or 'root'}`, rank "
                    f"{LAYER_RANKS[tgt_pkg]}): dependencies must flow "
                    f"strictly downward, this one points {direction}",
                    symbol=record.target,
                    evidence=[
                        EvidenceStep(
                            path=pctx.facts[module].rel,
                            line=record.lineno,
                            note=f"{direction} import of `{record.target}`",
                        )
                    ],
                )

    def _check_lint_module(self, module, mod_facts, tops) -> None:
        top = module.split(".", 1)[0]
        for record in mod_facts.imports:
            target = record.target
            if target == f"{top}.lint" or target.startswith(f"{top}.lint."):
                continue
            head = target.split(".", 1)[0]
            if head in tops:
                self.report(
                    module,
                    record.lineno,
                    f"`{module}` imports `{target}`: the lint package must "
                    f"import nothing but the stdlib (it cannot depend on "
                    f"the code it checks)",
                    symbol=target,
                )
            elif head not in sys.stdlib_module_names:
                self.report(
                    module,
                    record.lineno,
                    f"`{module}` imports third-party `{target}`: the lint "
                    f"package must import nothing but the stdlib",
                    symbol=target,
                )


@register
class MemoPurityRule(ProjectRule):
    """REP205: memo-feeding functions must be pure of ambient state/clocks."""

    id = "REP205"
    name = "memo-purity"
    description = (
        "function on a memoized-solve path reads ambient mutable state or a "
        "clock outside repro.obs.clock"
    )
    hint = (
        "thread the value through parameters so it lands in the memo "
        "fingerprint, or route timing through repro.obs.clock"
    )
    explanation = (
        "Seeds the call graph with every registered strategy function "
        "(func=/batch_func= in StrategyInfo) — their results enter the "
        "fingerprint-keyed memo — and flags reachable reads of module-level "
        "mutable bindings and direct stdlib clock calls (time.*, "
        "datetime.now). Anything a memoized result depends on must be part "
        "of its key; ambient state and clocks are not."
    )

    def check(self) -> None:
        pctx = self.pctx
        roots = {root.fid for root in pctx.strategy_roots}
        reach = pctx.reachable_from(roots)
        seen: set[tuple[str, int, str]] = set()
        for fid in reach:
            func = pctx.functions[fid]
            if func.module.endswith(".obs.clock"):
                continue  # the sanctioned wrapper itself
            self._check_clocks(func, reach, seen)
            self._check_ambient_reads(func, reach, seen)

    def _flag(self, func, lineno, message, reach, seen, key) -> None:
        if key in seen:
            return
        seen.add(key)
        evidence = call_chain(self.pctx, reach, func.fid, "memoized strategy root")
        evidence.append(
            EvidenceStep(
                path=self.pctx.facts[func.module].rel,
                line=lineno,
                note=message,
            )
        )
        self.report(
            func.module,
            lineno,
            f"`{func.qualname}` (memoized-solve path) {message}",
            symbol=func.qualname,
            evidence=evidence,
        )

    def _check_clocks(self, func, reach, seen) -> None:
        pctx = self.pctx
        for call in func.calls:
            if call.is_reference:
                continue
            parts = call.name.split(".")
            if parts[-1] not in _CLOCK_NAMES:
                continue
            resolved = pctx.resolve_callable(func.module, call.name)
            if resolved:
                # Resolves to project code: either the sanctioned
                # repro.obs.clock wrapper, or a project function that merely
                # shares a clock name (its own body is checked when reached).
                continue
            origin = None
            head = parts[0]
            if head in _CLOCK_MODULES:
                origin = head
            else:
                imported = pctx._import_maps.get(func.module, {}).get(head)
                if imported is not None and (
                    imported[0] in _CLOCK_MODULES
                    or imported[0].split(".", 1)[0] in _CLOCK_MODULES
                ):
                    origin = imported[0]
            if origin is None:
                continue
            self._flag(
                func,
                call.lineno,
                f"reads the `{origin}` clock via `{call.name}()` outside "
                f"`repro.obs.clock`",
                reach,
                seen,
                (func.fid, call.lineno, call.name),
            )

    def _check_ambient_reads(self, func, reach, seen) -> None:
        pctx = self.pctx
        for read in func.reads:
            resolved = pctx.resolve_module_binding(func.module, read.name)
            if resolved is None:
                continue
            home, binding = resolved
            if not pctx.binding_is_mutable(binding):
                continue
            self._flag(
                func,
                read.lineno,
                f"reads ambient mutable `{read.name}` "
                f"(module-level in `{home}`)",
                reach,
                seen,
                (func.fid, read.lineno, read.name),
            )


@register
class DeadPublicSymbolRule(ProjectRule):
    """REP206: exported names never referenced anywhere in the project."""

    id = "REP206"
    name = "dead-public-symbol"
    description = (
        "name exported via __all__ but never referenced in src, tests, or examples"
    )
    hint = (
        "delete the symbol (and its __all__ entry), or add the test/usage "
        "that should have existed"
    )
    explanation = (
        "Collects every identifier referenced anywhere under "
        "src/tests/examples (name loads, attributes, imports, and "
        "identifier tokens in string annotations/docs — __all__ entries "
        "themselves excluded) and flags exported names appearing in no "
        "reference set. Decorator-registered definitions are exempt: "
        "registration is their use."
    )

    def check(self) -> None:
        pctx = self.pctx
        for module, mod_facts in sorted(pctx.facts.items()):
            for export in mod_facts.exports:
                name = export.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name in pctx.reference_names:
                    continue
                if self._is_registered_definition(mod_facts, name):
                    continue
                binding = mod_facts.binding(name)
                evidence = []
                if binding is not None:
                    evidence.append(
                        EvidenceStep(
                            path=mod_facts.rel,
                            line=binding.lineno,
                            note=f"`{name}` defined here",
                        )
                    )
                evidence.append(
                    EvidenceStep(
                        path=mod_facts.rel,
                        line=export.lineno,
                        note="exported here, referenced nowhere",
                    )
                )
                self.report(
                    module,
                    export.lineno,
                    f"`{module}.{name}` is exported via __all__ but "
                    f"referenced nowhere in src, tests, or examples",
                    symbol=name,
                    evidence=evidence,
                )

    def _is_registered_definition(self, mod_facts, name: str) -> bool:
        for func in mod_facts.functions:
            if func.qualname == name:
                return any(
                    not d.startswith("dataclass") for d in func.decorators
                )
        for klass in mod_facts.classes:
            if klass.name == name:
                return any(
                    not d.startswith("dataclass") for d in klass.decorators
                )
        return False


def _call_leaf(node: ast.Call) -> "str | None":
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
