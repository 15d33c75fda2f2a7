"""CLI: ``python -m repro.analysis [paths...] [--strict] [--format ...]``.

With no paths the suite walks the installed ``repro`` package — the CI lint
lane is exactly ``python -m repro.analysis --strict``.

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 findings,
2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .registry import all_rules, available_checkers
from .runner import analyze_paths

__all__ = ["main"]


def _default_paths() -> List[Path]:
    import repro

    return [Path(repro.__file__).parent]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism / pickle-safety / telemetry-flow static "
            "analysis for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too (the CI gate)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format",
    )
    parser.add_argument(
        "--checker",
        action="append",
        dest="checkers",
        metavar="NAME",
        help="run only this checker (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to report (others are dropped)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by # repro: ignore[...] comments",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.id:26s} {rule.severity:8s} {rule.summary}")
        print(f"checkers: {', '.join(available_checkers())}")
        return 0

    paths = options.paths or _default_paths()
    select = (
        [rule.strip() for rule in options.select.split(",") if rule.strip()]
        if options.select
        else None
    )
    try:
        report = analyze_paths(paths, checkers=options.checkers, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(show_suppressed=options.show_suppressed))
    return report.exit_code(strict=options.strict)


if __name__ == "__main__":
    sys.exit(main())
