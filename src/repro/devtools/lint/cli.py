"""Command-line entry point: ``python -m repro.devtools.lint``.

Exit codes are CI-friendly: 0 = clean (modulo the committed baseline),
1 = non-baselined findings, 2 = usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .framework import RULES, Baseline, Finding, LintConfig, run_lint
from . import rules as _rules  # noqa: F401  (importing registers the rules)

__all__ = ["main", "build_doc_surfaces"]

DEFAULT_BASELINE = "lint_baseline.json"


def build_doc_surfaces(targets: Sequence[Path], docs_dirs: Sequence[Path]) -> Dict[str, str]:
    """Collect the user-facing texts RPR005 searches for registered names.

    The CLI module inside the analysed tree counts (its help strings are a
    discovery surface), plus every markdown file in the given docs
    directories and a top-level README next to them.
    """
    surfaces: Dict[str, str] = {}
    for target in targets:
        root = target if target.is_dir() else target.parent
        for candidate in sorted(root.rglob("cli.py")):
            surfaces[candidate.as_posix()] = candidate.read_text(encoding="utf-8")
    for docs_dir in docs_dirs:
        if not docs_dir.is_dir():
            continue
        for markdown in sorted(docs_dir.glob("*.md")):
            surfaces[markdown.as_posix()] = markdown.read_text(encoding="utf-8")
        readme = docs_dir.parent / "README.md"
        if readme.exists():
            surfaces[readme.as_posix()] = readme.read_text(encoding="utf-8")
    return surfaces


def _default_docs_dirs(targets: Sequence[Path]) -> List[Path]:
    dirs = [Path("docs")]
    for target in targets:
        # src/repro -> <repo>/docs when invoked from elsewhere.
        dirs.append(target.resolve().parent.parent / "docs")
    unique: List[Path] = []
    seen = set()
    for d in dirs:
        key = d.resolve() if d.exists() else d
        if key not in seen:
            seen.add(key)
            unique.append(d)
    return unique


def _print_stats(result, baseline: Baseline, stream) -> None:
    codes = sorted(set(result.per_rule_active) | set(result.per_rule_baselined) | set(RULES))
    stream.write("rule      active  baselined  description\n")
    for code in codes:
        spec = RULES.get(code)
        summary = spec.summary if spec else "(parse failures)"
        stream.write(
            f"{code:<8}  {result.per_rule_active.get(code, 0):>6}  "
            f"{result.per_rule_baselined.get(code, 0):>9}  {summary[:70]}\n"
        )
    debt = len(result.baselined)
    stream.write(
        f"\nbaseline debt: {debt} finding(s) grandfathered, "
        f"{len(result.stale_baseline)} stale entr{'y' if len(result.stale_baseline) == 1 else 'ies'}\n"
    )
    for entry in result.stale_baseline:
        stream.write(
            f"  stale: {entry.code} {entry.path} [{entry.symbol}] — remove from baseline\n"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "Contract linter for the repro engine: determinism (RPR001), "
            "__slots__ (RPR002), checkpoint coverage (RPR003), registry "
            "hygiene (RPR005), error discipline (RPR006) and frozen-spec "
            "mutation (RPR007).  See docs/LINTING.md."
        ),
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding as active)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current active findings to the baseline file and "
        "exit 0 (requires --justification)",
    )
    parser.add_argument(
        "--justification",
        default=None,
        metavar="TEXT",
        help="why the baselined findings are acceptable debt; recorded on "
        "every entry written by --write-baseline (required with it, must "
        "be non-empty)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and baseline debt",
    )
    parser.add_argument(
        "--docs-dir",
        action="append",
        default=None,
        help="documentation directory searched by RPR005 (repeatable; "
        "default: ./docs and <target>/../../docs)",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        # A baseline entry without a reason is unpayable debt: nobody can
        # later tell whether it is still justified.  Refuse up front.
        if args.justification is None or not args.justification.strip():
            parser.error(
                "--write-baseline requires --justification TEXT explaining "
                "why the grandfathered findings are acceptable (empty "
                "strings are rejected)"
            )
    elif args.justification is not None:
        parser.error("--justification only makes sense with --write-baseline")

    targets = [Path(p) for p in args.paths]
    for target in targets:
        if not target.exists():
            parser.error(f"path does not exist: {target}")

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
        unknown = [code for code in select if code not in RULES]
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(unknown)}")

    baseline_path = Path(args.baseline)
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    docs_dirs = [Path(d) for d in args.docs_dir] if args.docs_dir else _default_docs_dirs(targets)
    doc_surfaces = build_doc_surfaces(targets, docs_dirs)

    result = run_lint(
        targets,
        config=LintConfig(),
        baseline=baseline,
        doc_surfaces=doc_surfaces,
        select=select,
    )

    if args.write_baseline:
        Baseline.write(
            baseline_path, result.active, justification=args.justification.strip()
        )
        sys.stdout.write(
            f"wrote {len(result.active)} finding(s) to {baseline_path} "
            f"(justification: {args.justification.strip()})\n"
        )
        return 0

    if args.format == "json":
        payload = {
            "findings": [f.to_json() for f in result.active],
            "baselined": [f.to_json() for f in result.baselined],
            "stale_baseline": [
                {"code": e.code, "path": e.path, "symbol": e.symbol}
                for e in result.stale_baseline
            ],
            "stats": {
                "active": result.per_rule_active,
                "baselined": result.per_rule_baselined,
            },
            "exit_code": result.exit_code,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for finding in result.active:
            sys.stdout.write(finding.render() + "\n")
        if result.active:
            sys.stdout.write(f"\n{len(result.active)} finding(s)\n")
        else:
            sys.stdout.write("clean\n")
        if result.baselined:
            sys.stdout.write(
                f"({len(result.baselined)} baselined finding(s) not shown; "
                "run with --stats for debt)\n"
            )
        if args.stats:
            sys.stdout.write("\n")
    if args.stats and args.format == "text":
        _print_stats(result, baseline, sys.stdout)

    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
