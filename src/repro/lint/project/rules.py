"""The project-wide rules: REP201, REP205, REP206.

Each rule reads the facts of the modules it names from the one
:class:`ProjectContext` and attaches the evidence that connects the
definition to the violation (a binding's definition site, an import
edge, an exported name's ``__all__`` line).  No rule follows a
call: REP201 and REP205 name the modules they police (``WORKER_MODULES``,
``repro.core``).  All rules prefer a false negative over a false
positive: an unresolvable construct is skipped, never guessed against.

REP204 (layer boundaries) is retired: the layer ranks and the rule that
``repro.lint`` imports only the stdlib are asserted on the raw import facts
by ``TestLayerContract`` (``tests/lint/project/test_shipped_tree.py``), and
CI runs the linter on a bare interpreter.
"""

from __future__ import annotations

from ..base import register
from ..findings import EvidenceStep
from .base import ProjectRule
from .model import FunctionFacts

__all__ = [
    "WORKER_MODULES",
    "WorkerGlobalWriteRule",
    "MemoPurityRule",
    "DeadPublicSymbolRule",
]

#: The modules a pool worker executes: the solvers, the observability hooks
#: they call, and the engine modules ``solve_unit`` runs in the worker.  The
#: rest of ``repro.engine`` (executor, plan, pool, resilience) runs only in
#: the parent process.
WORKER_MODULES = (
    "repro.core",
    "repro.obs",
    "repro.engine.batch",
    "repro.engine.checkpoint",
    "repro.engine.memo",
)


def _in_modules(module: str, names: "tuple[str, ...]") -> bool:
    """True when ``module`` is one of ``names`` or lives under one of them."""
    return any(module == name or module.startswith(name + ".") for name in names)


@register
class WorkerGlobalWriteRule(ProjectRule):
    """REP201: module-level mutable state written in a worker module."""

    id = "REP201"
    name = "worker-global-write"
    description = (
        "a module a pool worker runs (WORKER_MODULES) rebinds a module "
        "global or mutates a module-level mutable binding"
    )
    hint = (
        "pass the state through WorkUnit/return values, or make the binding "
        "immutable; workers must not mutate shared module globals"
    )
    explanation = (
        "Invariant: a --jobs N campaign prints the serial run's bytes; each "
        "worker process has its own copy of every module global, so a write "
        "to one silently diverges. Flags, in the WORKER_MODULES modules "
        "(repro.core, repro.obs, "
        "repro.engine.{batch,checkpoint,memo}), every `global` "
        "rebind and every mutation (item/attribute assignment, "
        ".append()/.update()/...) of a module-level mutable binding, "
        "following one import. Also held by: the --jobs 2 parity tests "
        "(TestBitwiseParity), on the paths they run. Caught: none recorded "
        "(two sanctioned sites allowlisted)."
    )

    def check(self) -> None:
        pctx = self.pctx
        for module, mod_facts in sorted(pctx.facts.items()):
            if not _in_modules(module, WORKER_MODULES):
                continue
            for func in mod_facts.functions:
                self._check_function(func)

    def _check_function(self, func: FunctionFacts) -> None:
        pctx = self.pctx
        seen: set[tuple[str, int]] = set()
        for write in func.writes:
            if (write.name, write.lineno) in seen:
                continue  # one finding per binding per line
            seen.add((write.name, write.lineno))
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
            evidence = []
            if resolved is not None:
                home, binding = resolved
                evidence.append(
                    EvidenceStep(
                        path=pctx.facts[home].rel,
                        line=binding.lineno,
                        note=f"module-level binding `{write.name}` defined here",
                    )
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
                f"`{func.qualname}` {reason} `{write.name}`, and pool "
                f"workers run this module (WORKER_MODULES)",
                symbol=write.name,
                evidence=evidence,
            )


@register
class MemoPurityRule(ProjectRule):
    """REP205: solver code must not read ambient mutable state."""

    id = "REP205"
    name = "memo-purity"
    description = (
        "repro.core function reads a module-level mutable binding (ambient "
        "state the memo fingerprint does not cover)"
    )
    hint = (
        "thread the value through parameters so it lands in the memo "
        "fingerprint, or make the binding immutable"
    )
    explanation = (
        "Invariant: a memoized result depends only on its fingerprint, or a "
        "cache replay changes answers. Flags, in every repro.core module, "
        "each read of a module-level mutable binding, following one import; "
        "clocks are REP110's. Also held by: the memo tests, for the state "
        "they vary. Caught: none recorded (one false positive, a method "
        "call resolved by bare name into repro.obs.report, gone with the "
        "call graph)."
    )

    def check(self) -> None:
        pctx = self.pctx
        for module, mod_facts in sorted(pctx.facts.items()):
            if not pctx.files[module].in_core:
                continue
            for func in mod_facts.functions:
                # one finding per binding per line, however often it is read
                sites = dict.fromkeys((r.name, r.lineno) for r in func.reads)
                for name, lineno in sites:
                    resolved = pctx.resolve_module_binding(module, name)
                    if resolved is None or not pctx.binding_is_mutable(resolved[1]):
                        continue
                    home, binding = resolved
                    message = (
                        f"reads ambient mutable `{name}` (module-level in `{home}`)"
                    )
                    self.report(
                        module,
                        lineno,
                        f"`{func.qualname}` (solver code) {message}",
                        symbol=name,
                        evidence=[
                            EvidenceStep(
                                path=pctx.facts[home].rel,
                                line=binding.lineno,
                                note=f"module-level binding `{name}` defined here",
                            ),
                            EvidenceStep(path=mod_facts.rel, line=lineno, note=message),
                        ],
                    )


@register
class DeadPublicSymbolRule(ProjectRule):
    """REP206: public names never referenced anywhere in the project."""

    id = "REP206"
    name = "dead-public-symbol"
    description = (
        "name exported via __all__, or public module-level def/class, "
        "never referenced in src, tests, or examples"
    )
    hint = (
        "delete the symbol (and its __all__ entry), or add the test/usage "
        "that should have existed"
    )
    explanation = (
        "Invariant: what the package defines, something uses. Flags each "
        "__all__ entry and each public module-level def/class that no name "
        "load, attribute, import or string annotation under "
        "src/tests/examples mentions (any other string, __all__ entries "
        "included, mentions nothing); decorator-registered definitions are "
        "exempt. Also held by: the "
        "module census (TestCensus), for whole modules only. Caught: on its "
        "first run, the dead `NULL_OBSERVABILITY` export."
    )

    def check(self) -> None:
        pctx = self.pctx
        for module, mod_facts in sorted(pctx.facts.items()):
            exported = {export.name for export in mod_facts.exports}
            candidates = [
                (export.name, export.lineno, "exported via __all__")
                for export in mod_facts.exports
                if not (export.name.startswith("__") and export.name.endswith("__"))
            ]
            seen = set(exported)  # one finding per name
            for binding in mod_facts.bindings:
                if (
                    binding.kind in ("function", "class")
                    and not binding.name.startswith("_")
                    and binding.name not in seen
                ):
                    seen.add(binding.name)
                    candidates.append(
                        (binding.name, binding.lineno, f"a public module-level {binding.kind}")
                    )
            for name, lineno, what in candidates:
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
                if name in exported:
                    evidence.append(
                        EvidenceStep(
                            path=mod_facts.rel,
                            line=lineno,
                            note="exported here, referenced nowhere",
                        )
                    )
                self.report(
                    module,
                    lineno,
                    f"`{module}.{name}` is {what} but referenced nowhere "
                    f"in src, tests, or examples",
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
