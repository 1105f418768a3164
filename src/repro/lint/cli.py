"""``repro lint`` / ``python -m repro.lint`` — run the project lint.

One run parses the package once and applies every selected rule, per-file
(REP1xx) and whole-project (REP2xx) alike.  Exit codes: 0 clean, 1 error
findings, 2 usage errors (argparse, unknown selectors, a missing package).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .base import RULE_REGISTRY, rules_by_name
from .engine import lint
from .reporters import REPORTERS

__all__ = ["build_parser", "main"]

#: Default package root, relative to the repository root.
DEFAULT_PACKAGE = Path("src/repro")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` / ``python -m repro.lint`` parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        allow_abbrev=False,
        description=(
            "Project-specific static analysis: float-comparison, "
            "immutability, error-hierarchy, determinism, typing, and "
            "picklability rules guarding the paper's invariants, plus "
            "whole-project race/fork-safety/layering rules, in one pass."
        ),
    )
    parser.add_argument(
        "package",
        nargs="?",
        type=Path,
        default=DEFAULT_PACKAGE,
        help=f"package directory to lint (default: {DEFAULT_PACKAGE})",
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
        help=(
            "project root: findings are reported relative to it and REP206 "
            "scans its src/tests/examples (default: inferred from the package)"
        ),
    )
    return parser


def _explain(selector: str) -> int:
    """Print the long-form description of one rule."""
    try:
        (rule,) = rules_by_name([selector.strip()])
    except KeyError:
        print(f"repro lint: unknown rule {selector!r}")
        return 2
    print(f"{rule.id} [{rule.name}]")
    print(f"  {rule.description}")
    if rule.explanation:
        print()
        print(f"  {rule.explanation}")
    print()
    print(f"  hint: {rule.hint}")
    return 0


def _list_rules() -> int:
    for rule in RULE_REGISTRY.values():
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
    try:
        report = lint(args.package, rule_names=selectors, project_root=args.root)
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}")
        return 2
    print(REPORTERS[args.output_format](report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
