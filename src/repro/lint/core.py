"""Shared rule-engine core for both lint targets.

One vocabulary serves the design-rule checker over the :class:`Netlist` IR
(:mod:`repro.lint.design`) and the repo-invariant AST linter
(``tools/sradlint_rules.py``): a *rule* has a stable dotted id, a severity
and a description; running rules produces :class:`Finding` objects
(severity, human message, location); a :class:`LintReport` collects the
findings that survived suppression, knows whether any are errors, and
serialises to JSON for machine consumers (CI artifacts, ``--output``).

Severities are ordered ``error > warning > info``.  Only error-severity
findings fail builds: warnings are advisory (a fanout the library tolerates,
a dangling net that costs nothing but clutter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "Finding",
    "LintReport",
    "Rule",
    "severity_rank",
]

#: Severity levels, most severe first.
ERROR, WARNING, INFO = "error", "warning", "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


def severity_rank(severity: str) -> int:
    """Sort key for severities (``error`` sorts first); unknown sorts last."""
    return _SEVERITY_ORDER.get(severity, len(_SEVERITY_ORDER))


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    rule:
        Stable dotted rule id (``design.comb-loop``, ``ast.print-call``).
        Suppressions name this id, and reports group by it, so ids never
        change once shipped.
    severity:
        ``error`` / ``warning`` / ``info``.
    message:
        Human-readable description of the specific violation.
    location:
        Where it was found: ``<netlist>.<cell or net>`` for design findings,
        ``<path>:<line>`` for AST findings.
    line:
        Source line for AST findings (0 when not applicable); kept separate
        from ``location`` so suppression matching and JSON consumers do not
        have to parse strings.
    """

    rule: str
    severity: str
    message: str
    location: str = ""
    line: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary form (stable field names)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "line": self.line,
        }

    def render(self) -> str:
        """One-line text form: ``location: severity [rule] message``."""
        prefix = f"{self.location}: " if self.location else ""
        return f"{prefix}{self.severity} [{self.rule}] {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement a target-specific
    ``check`` method (the two engines have different signatures, so the base
    class only standardises identity and finding construction).
    """

    #: Stable dotted id; suppressions and reports refer to rules by this.
    id: str = ""
    #: Default severity of this rule's findings.
    severity: str = ERROR
    #: One-line "what it catches" used by rule catalogues and ``--list-rules``.
    description: str = ""

    def finding(
        self, message: str, *, location: str = "", line: int = 0,
        severity: Optional[str] = None,
    ) -> Finding:
        """Construct a finding attributed to this rule."""
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            message=message,
            location=location,
            line=line,
        )


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes
    ----------
    target:
        What was linted (a netlist name, a path list summary).
    findings:
        Findings that survived suppression, most severe first.
    suppressed:
        Count of findings dropped by per-rule suppressions.
    checked:
        How many units (nets+cells, or files) the run examined.
    """

    target: str = ""
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    checked: int = 0

    def __len__(self) -> int:
        return len(self.findings)

    @property
    def error_count(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warning_count(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        """True when any finding is error-severity (build-failing)."""
        return self.error_count > 0

    def by_rule(self) -> Dict[str, List[Finding]]:
        """Findings grouped by rule id."""
        grouped: Dict[str, List[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return grouped

    def extend(self, findings: Iterable[Finding]) -> None:
        """Append findings (callers re-sort via :meth:`sort` when done)."""
        self.findings.extend(findings)

    def sort(self) -> None:
        """Order findings most-severe first, then by location and rule."""
        self.findings.sort(
            key=lambda f: (severity_rank(f.severity), f.location, f.line, f.rule)
        )

    def summary(self) -> str:
        """One-line totals: ``3 finding(s) (1 error, 2 warnings) ...``."""
        suppressed = f", {self.suppressed} suppressed" if self.suppressed else ""
        return (
            f"{len(self.findings)} finding(s) "
            f"({self.error_count} error(s), {self.warning_count} warning(s)"
            f"{suppressed}) in {self.target or 'target'}"
        )

    def render(self) -> str:
        """Multi-line text report: one line per finding plus the summary."""
        lines = [finding.render() for finding in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary form (what ``sradlint --output`` writes)."""
        return {
            "target": self.target,
            "findings": [finding.to_dict() for finding in self.findings],
            "errors": self.error_count,
            "warnings": self.warning_count,
            "suppressed": self.suppressed,
            "checked": self.checked,
        }

