#!/usr/bin/env python
"""Repo-invariant linter front end (rules in ``tools/sradlint_rules.py``).

Runs the stdlib-AST rule set over the given files/directories and reports
findings as text or JSON.  Exit status is 1 when any unsuppressed
error-severity finding remains, so CI fails on violations::

    python tools/sradlint.py src tests tools benchmarks examples
    python tools/sradlint.py --format json --output lint.json src
    python tools/sradlint.py --list-rules

Suppress a finding by appending ``# sradlint: disable=<rule-id>`` (with a
comment justifying it) to the offending line.  Runs stdlib-only and
bootstraps ``sys.path`` itself, so no PYTHONPATH or install step is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)

from sradlint_rules import AST_RULES, ast_rule_catalogue, lint_paths  # noqa: E402

DEFAULT_PATHS = ["src", "tests", "tools", "benchmarks", "examples"]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sradlint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths", nargs="*", default=DEFAULT_PATHS,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--rule", action="append", metavar="RULE-ID", dest="rule_ids",
        help="run only the named rule(s) (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, severity, description in ast_rule_catalogue():
            print(f"{rule_id:<28} {severity:<8} {description}")
        return 0

    rules = None
    if args.rule_ids:
        known = {rule.id: rule for rule in AST_RULES}
        unknown = sorted(set(args.rule_ids) - set(known))
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [known[rule_id] for rule_id in args.rule_ids]

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    report = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        print(f"sradlint: {report.summary()}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if report.has_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
