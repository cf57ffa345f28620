"""Static analysis: design-rule checking and repo-invariant linting.

Two targets share one rule-engine core (:mod:`repro.lint.core`):

* :mod:`repro.lint.design` -- structural design rules over the
  :class:`~repro.hdl.netlist.Netlist` IR (combinational loops, undriven or
  multiply-driven nets, clock-network discipline, FSM reachability), run as
  an optional post-synthesis flow stage (``FlowSpec(lint=1)`` /
  ``sradgen --lint``).
* :mod:`repro.lint.ast_rules` -- stdlib-AST rules enforcing repo invariants
  (no blocking calls in async bodies, no prints in library code, no
  nondeterminism in cache-key paths, no mutable defaults, no dead imports),
  driven by ``tools/sradlint.py`` in CI.
"""

from repro.lint.ast_rules import (
    AST_RULES,
    AstRule,
    ast_rule_catalogue,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.core import (
    ERROR,
    INFO,
    WARNING,
    Finding,
    LintReport,
    Rule,
    severity_rank,
)
from repro.lint.design import (
    DESIGN_RULES,
    DesignContext,
    DesignRule,
    lint_netlist,
)

__all__ = [
    "AST_RULES",
    "AstRule",
    "DESIGN_RULES",
    "DesignContext",
    "DesignRule",
    "ERROR",
    "Finding",
    "INFO",
    "LintReport",
    "Rule",
    "WARNING",
    "ast_rule_catalogue",
    "lint_file",
    "lint_netlist",
    "lint_paths",
    "lint_source",
    "severity_rank",
]
