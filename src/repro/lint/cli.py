"""``repro lint`` / ``python -m repro.lint`` — run the project lint.

Two tiers share this entry point: the per-file rules (REP1xx, default)
and the whole-project rules (REP2xx, ``--project``).  Exit codes: 0
clean, 1 error findings, 2 usage errors (argparse or unknown selectors).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .base import RULE_REGISTRY
from .engine import lint_paths, lint_project
from .reporters import REPORTERS

__all__ = ["build_parser", "main"]

#: Default lint targets, relative to the repository root.
DEFAULT_TARGETS = ("src/repro",)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` / ``python -m repro.lint`` parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Project-specific static analysis: float-comparison, "
            "immutability, error-hierarchy, determinism, typing, and "
            "picklability rules guarding the paper's invariants — plus "
            "whole-project race/fork-safety/layering rules (--project)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help=(
            "run the whole-project rules (REP201-REP206): symbol table, "
            "import graph, call graph over the full tree"
        ),
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="NAME[,NAME...]",
        help="restrict to specific rules (slug or id); repeatable",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        dest="rules",
        metavar="NAME",
        help="alias for --rules (one selector per flag)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="REPxxx",
        help="print what a rule checks and why, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="directory findings are reported relative to (default: cwd)",
    )
    return parser


def _explain(selector: str) -> int:
    """Print the long-form description of one rule (either tier)."""
    from .project.base import PROJECT_RULE_REGISTRY

    wanted = selector.strip()
    for registry in (RULE_REGISTRY, PROJECT_RULE_REGISTRY):
        for rule in registry.values():
            if wanted.upper() == rule.id or wanted == rule.name:
                print(f"{rule.id} [{rule.name}]")
                print(f"  {rule.description}")
                explanation = getattr(rule, "explanation", "")
                if explanation:
                    print()
                    print(f"  {explanation}")
                print()
                print(f"  hint: {rule.hint}")
                return 0
    print(f"repro lint: unknown rule {selector!r}")
    return 2


def _list_rules() -> int:
    from .project.base import PROJECT_RULE_REGISTRY

    print("per-file rules:")
    for rule in RULE_REGISTRY.values():
        print(f"  {rule.id}  {rule.name:<22} {rule.description}")
    print("project rules (--project):")
    for rule in PROJECT_RULE_REGISTRY.values():
        print(f"  {rule.id}  {rule.name:<22} {rule.description}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Run one lint invocation; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    selectors = None
    if args.rules:
        selectors = [
            name.strip()
            for chunk in args.rules
            for name in chunk.split(",")
            if name.strip()
        ]
    paths = args.paths or [Path(p) for p in DEFAULT_TARGETS]
    try:
        if args.project:
            report = lint_project(
                paths[0], rule_names=selectors, project_root=args.root
            )
        else:
            report = lint_paths(paths, rule_names=selectors, root=args.root)
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}")
        return 2
    print(REPORTERS[args.output_format](report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
