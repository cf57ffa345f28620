"""Repo-invariant linter over Python source (stdlib :mod:`ast` only).

The second lint target: where :mod:`repro.lint.design` checks what the code
*produces* (netlists), this module checks the code itself for the invariants
PR 4--7 established and prose alone cannot defend:

========================  ========  ==================================================
id                        severity  catches
========================  ========  ==================================================
``ast.async-blocking``    error     blocking calls (``time.sleep``, ``subprocess.run``,
                                    sync socket/file waits) inside ``async def`` bodies
                                    in library code -- they stall the whole event loop
``ast.print-call``        error     bare ``print()`` in library code; diagnostics must
                                    go through ``repro.obs.log`` (stderr, structured)
``ast.nondeterministic-key``  error  ``time.time``/``random``/``uuid``/``datetime.now``
                                    inside key/hash/fingerprint/digest functions --
                                    cache keys must be pure functions of their inputs
``ast.mutable-default``   error     mutable default arguments (shared across calls)
``ast.dead-import``       error     imports never referenced in the module
``ast.silent-except``     error     ``except`` handlers whose whole body is ``pass``/
                                    ``...`` in library code -- swallowed errors hide
                                    real faults; log, re-raise or justify per line
``ast.bare-retry-loop``   error     ``while True`` loops that catch an exception and
                                    ``continue`` without any backoff/budget call --
                                    hand-rolled retry storms; go through
                                    ``repro.resilience.retry.RetryPolicy``
========================  ========  ==================================================

Suppression is per line: append ``# sradlint: disable=<rule-id>`` (or
``disable=all``) with a comment justifying it.  Scoped rules only fire on
library code (paths under ``src/repro/``).  The CLI front end is
``tools/sradlint.py``; the rules live beside it, outside the ``repro``
package, because no ``sradgen`` mode runs them.  They share only the rule
engine, :mod:`repro.lint.core`, with the design linter.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import ERROR, Finding, LintReport, Rule

__all__ = [
    "AST_RULES",
    "AstRule",
    "ast_rule_catalogue",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Pseudo rule id attached to unparseable files (not suppressible).
SYNTAX_ERROR_RULE = "ast.syntax-error"

_SUPPRESS_RE = re.compile(r"#\s*sradlint:\s*disable=([A-Za-z0-9_.,\- ]+)")


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def _is_library_code(path: str) -> bool:
    """True for paths inside the installable package (``src/repro/``)."""
    posix = _posix(path)
    return "src/repro/" in posix or posix.startswith("repro/")


def _dotted(func: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` call targets as ``("a", "b", "c")``; empty when not a chain."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a function's body, not descending into nested functions.

    A nested ``def`` inside an ``async def`` is its own (synchronous)
    execution context -- the service's reader-pump helpers are exactly that
    pattern -- so async-context rules must stop at function boundaries.
    """
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class AstRule(Rule):
    """A rule over one parsed module."""

    def applies_to(self, path: str) -> bool:
        """Whether this rule is in scope for ``path`` (default: everywhere)."""
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError


#: Calls that block the thread (and therefore the event loop) when made
#: directly from an ``async def`` body.
_BLOCKING_CALLS: Set[Tuple[str, ...]] = {
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
}


class AsyncBlockingRule(AstRule):
    id = "ast.async-blocking"
    severity = ERROR
    description = (
        "blocking call (time.sleep, subprocess.*, socket waits, open()) "
        "directly inside an async def body"
    )

    def applies_to(self, path: str) -> bool:
        return _is_library_code(path)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for stmt in _own_body(node):
                if not isinstance(stmt, ast.Call):
                    continue
                dotted = _dotted(stmt.func)
                blocking = (
                    dotted[-2:] in _BLOCKING_CALLS
                    or dotted == ("open",)
                )
                if blocking:
                    yield self.finding(
                        f"blocking call {'.'.join(dotted)}() inside "
                        f"async def {node.name}(); use asyncio equivalents "
                        "or asyncio.to_thread",
                        location=f"{path}:{stmt.lineno}",
                        line=stmt.lineno,
                    )


class PrintCallRule(AstRule):
    id = "ast.print-call"
    severity = ERROR
    description = "bare print() in library code (use repro.obs.log)"

    def applies_to(self, path: str) -> bool:
        # The CLI front end's job *is* writing to stdout; everything else in
        # the package must keep stdout clean for piped consumers.
        posix = _posix(path)
        return _is_library_code(path) and not posix.endswith("repro/cli.py")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    "print() in library code; route diagnostics through "
                    "repro.obs.log (structured, stderr)",
                    location=f"{path}:{node.lineno}",
                    line=node.lineno,
                )


_KEY_FUNC_RE = re.compile(r"key|hash|fingerprint|digest|to_spec")


class NondeterministicKeyRule(AstRule):
    id = "ast.nondeterministic-key"
    severity = ERROR
    description = (
        "time/random/uuid/datetime.now inside cache-key/hashing functions"
    )

    def applies_to(self, path: str) -> bool:
        return _is_library_code(path)

    @staticmethod
    def _nondeterministic(dotted: Tuple[str, ...]) -> bool:
        if not dotted:
            return False
        if dotted[0] == "random":
            return True
        if dotted[0] == "time" and dotted[-1] in (
            "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"
        ):
            return True
        if dotted[0] == "uuid" and dotted[-1] in ("uuid1", "uuid4"):
            return True
        if dotted[0] == "datetime" and dotted[-1] in ("now", "utcnow", "today"):
            return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _KEY_FUNC_RE.search(node.name):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Call):
                    continue
                dotted = _dotted(stmt.func)
                if self._nondeterministic(dotted):
                    yield self.finding(
                        f"nondeterministic call {'.'.join(dotted)}() inside "
                        f"{node.name}(); keys and digests must be pure "
                        "functions of their inputs",
                        location=f"{path}:{stmt.lineno}",
                        line=stmt.lineno,
                    )


class MutableDefaultRule(AstRule):
    id = "ast.mutable-default"
    severity = ERROR
    description = "mutable default argument (shared across all calls)"

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray")
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        f"mutable default argument in {name}(); default to "
                        "None and create the object inside the function",
                        location=f"{path}:{default.lineno}",
                        line=default.lineno,
                    )


class DeadImportRule(AstRule):
    id = "ast.dead-import"
    severity = ERROR
    description = "import never referenced in the module (nor via __all__)"

    @staticmethod
    def bindings(tree: ast.AST) -> Dict[str, Tuple[int, str]]:
        """Map bound name -> (line, display) for every import in the module."""
        bindings: Dict[str, Tuple[int, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    bindings[bound] = (node.lineno, f"import {alias.name}")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue  # star imports are opaque; skip them
                    bound = alias.asname or alias.name
                    bindings[bound] = (
                        node.lineno,
                        f"from {'.' * node.level}{node.module or ''}"
                        f" import {alias.name}",
                    )
        return bindings

    @staticmethod
    def used_names(tree: ast.AST) -> Set[str]:
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign):
                # Names listed in __all__ count as (re-)exported uses.
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "__all__" in targets:
                    for element in ast.walk(node.value):
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            used.add(element.value)
        return used

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        bindings = self.bindings(tree)
        if not bindings:
            return
        used = self.used_names(tree)
        for bound, (line, display) in sorted(
            bindings.items(), key=lambda kv: kv[1][0]
        ):
            if bound not in used:
                yield self.finding(
                    f"unused import: {display} (as {bound})",
                    location=f"{path}:{line}",
                    line=line,
                )


class SilentExceptRule(AstRule):
    id = "ast.silent-except"
    severity = ERROR
    description = (
        "except handler whose entire body is pass/... in library code "
        "(swallows errors silently; log, narrow, or justify per line)"
    )

    def applies_to(self, path: str) -> bool:
        return _is_library_code(path)

    @staticmethod
    def _is_silent(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ) and stmt.value.value is Ellipsis:
                continue
            return False
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_silent(node):
                continue
            caught = (
                ast.unparse(node.type) if node.type is not None else "BaseException"
            )
            yield self.finding(
                f"except {caught} handler silently swallows the error; "
                "log it, handle it, or add a justified per-line disable",
                location=f"{path}:{node.lineno}",
                line=node.lineno,
            )


#: Call-name substrings that mark a retry loop as disciplined: it waits
#: (backoff/sleep/poll) or consults a budget/policy before looping again.
_RETRY_DISCIPLINE_RE = re.compile(
    r"backoff|sleep|wait|poll|retry|budget|deadline|attempt"
)


class BareRetryLoopRule(AstRule):
    id = "ast.bare-retry-loop"
    severity = ERROR
    description = (
        "while True loop that catches an exception and continues with no "
        "backoff/budget call (retry storm; use resilience.retry.RetryPolicy)"
    )

    def applies_to(self, path: str) -> bool:
        return _is_library_code(path)

    @classmethod
    def _handler_retries(cls, handler: ast.ExceptHandler) -> bool:
        """Whether the handler loops again (contains a top-loop continue)."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Continue):
                return True
            # A nested loop owns its own continue statements; stop there.
            if isinstance(node, (ast.While, ast.For)) and node is not handler:
                return False
        return False

    @classmethod
    def _is_disciplined(cls, loop: ast.While) -> bool:
        """Whether the loop shows any bound: a wait, a budget, a counter."""
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted and _RETRY_DISCIPLINE_RE.search(".".join(dotted).lower()):
                    return True
            # An attempt counter compared or raised on is a budget too.
            if isinstance(node, (ast.Name, ast.Attribute)):
                text = getattr(node, "attr", None) or getattr(node, "id", "")
                if _RETRY_DISCIPLINE_RE.search(text.lower()):
                    return True
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            infinite = isinstance(test, ast.Constant) and test.value is True
            if not infinite:
                continue
            handlers = [
                handler
                for stmt in node.body
                if isinstance(stmt, ast.Try)
                for handler in stmt.handlers
            ]
            retrying = [h for h in handlers if self._handler_retries(h)]
            if not retrying:
                continue
            if self._is_disciplined(node):
                continue
            yield self.finding(
                "while True retry loop with no backoff or budget; route "
                "retries through repro.resilience.retry (RetryPolicy / "
                "call_with_retry)",
                location=f"{path}:{node.lineno}",
                line=node.lineno,
            )


#: All AST rules, in reporting order.
AST_RULES: Tuple[AstRule, ...] = (
    AsyncBlockingRule(),
    PrintCallRule(),
    NondeterministicKeyRule(),
    MutableDefaultRule(),
    DeadImportRule(),
    SilentExceptRule(),
    BareRetryLoopRule(),
)


def ast_rule_catalogue() -> List[Tuple[str, str, str]]:
    """``(id, severity, description)`` for every AST rule."""
    return [(r.id, r.severity, r.description) for r in AST_RULES]


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line ``# sradlint: disable=<rule>[,<rule>]`` directives."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            # Take the first token of each comma-separated entry, so trailing
            # justification text ("disable=<rule> -- why") does not leak in.
            names = set()
            for entry in match.group(1).split(","):
                tokens = entry.split()
                if tokens:
                    names.add(tokens[0])
            table[lineno] = names
    return table


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    rules: Optional[Sequence[AstRule]] = None,
) -> Tuple[List[Finding], int]:
    """Lint one module's source; return ``(findings, suppressed_count)``.

    ``path`` drives rule scoping and finding locations -- tests lint string
    fixtures under virtual paths like ``src/repro/service/x.py`` to exercise
    scoped rules without touching the tree.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        finding = Finding(
            rule=SYNTAX_ERROR_RULE,
            severity=ERROR,
            message=f"syntax error: {error.msg}",
            location=f"{path}:{error.lineno or 0}",
            line=error.lineno or 0,
        )
        return [finding], 0
    findings: List[Finding] = []
    for rule in rules if rules is not None else AST_RULES:
        if rule.applies_to(path):
            findings.extend(rule.check(tree, path))
    disabled = _suppressions(source)
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        names = disabled.get(finding.line, ())
        if finding.rule in names or "all" in names:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_file(
    path: str, *, rules: Optional[Sequence[AstRule]] = None
) -> Tuple[List[Finding], int]:
    """Lint one file on disk; return ``(findings, suppressed_count)``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, rules=rules)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``*.py`` under the given files/directories, sorted."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [
                d for d in dirnames if not d.startswith((".", "__pycache__"))
            ]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_paths(
    paths: Sequence[str], *, rules: Optional[Sequence[AstRule]] = None
) -> LintReport:
    """Lint every Python file under ``paths`` into one :class:`LintReport`."""
    report = LintReport(target=" ".join(paths))
    for path in iter_python_files(paths):
        report.checked += 1
        findings, suppressed = lint_file(path, rules=rules)
        report.extend(findings)
        report.suppressed += suppressed
    report.sort()
    return report
