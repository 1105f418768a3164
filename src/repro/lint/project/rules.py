"""The project-wide rules: REP201, REP204, REP205, REP206.

Each rule reads the facts of the modules it names from the one
:class:`ProjectContext` and attaches the evidence that connects the
definition to the violation (a binding's definition site, an import
edge, an exported name's ``__all__`` line).  No rule follows a
call: REP201 and REP205 name the modules they police (``WORKER_MODULES``,
``repro.core``).  All rules prefer a false negative over a false
positive: an unresolvable construct is skipped, never guessed against.
"""

from __future__ import annotations

import sys

from ..base import register
from ..findings import EvidenceStep
from .base import ProjectRule
from .model import FunctionFacts

__all__ = [
    "WORKER_MODULES",
    "WorkerGlobalWriteRule",
    "LayerBoundaryRule",
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

def _package_of(module: str) -> str:
    """Second-level package of ``module`` (``""`` for the top package)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


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
        "Invariant: every intra-project import flows strictly down "
        "LAYER_RANKS (same package exempt), and the lint package imports "
        "the stdlib only, so it never depends on the code it checks. Also "
        "held by: nothing else. Caught: none recorded."
    )

    def check(self) -> None:
        pctx = self.pctx
        tops = {module.split(".", 1)[0] for module in pctx.facts}
        for module, mod_facts in sorted(pctx.facts.items()):
            src_pkg = _package_of(module)
            if src_pkg == "lint":
                self._check_lint_module(module, mod_facts, tops)
                continue
            if src_pkg not in LAYER_RANKS:
                continue
            for record in mod_facts.imports:
                tgt_top = record.target.split(".", 1)[0]
                if tgt_top not in tops:
                    continue
                tgt_pkg = _package_of(record.target)
                if tgt_pkg not in LAYER_RANKS:
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
