"""AST linter: each rule fires on a broken fixture, suppression works, and
the sradlint CLI front end honours its output/exit contracts."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from sradlint_rules import (
    AST_RULES,
    ast_rule_catalogue,
    iter_python_files,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRADLINT = REPO_ROOT / "tools" / "sradlint.py"

#: Virtual paths that put fixtures in (or out of) library-code scope.
LIB = "src/repro/service/fixture.py"
NON_LIB = "tools/fixture.py"


def _rules(findings):
    return {finding.rule for finding in findings}


def _lint(source, path=LIB):
    findings, suppressed = lint_source(textwrap.dedent(source), path=path)
    return findings, suppressed


def test_rule_catalogue_ids_are_stable():
    assert [entry[0] for entry in ast_rule_catalogue()] == [
        "ast.async-blocking",
        "ast.print-call",
        "ast.nondeterministic-key",
        "ast.mutable-default",
        "ast.dead-import",
        "ast.silent-except",
        "ast.bare-retry-loop",
    ]
    assert len(ast_rule_catalogue()) == len(AST_RULES)


# ---------------------------------------------------------------------------
# ast.async-blocking
# ---------------------------------------------------------------------------

def test_async_blocking_fires_on_sleep_and_subprocess():
    findings, _ = _lint(
        """
        import subprocess
        import time

        async def handler():
            time.sleep(1)
            subprocess.run(["true"])
            open("x")
        """
    )
    blocking = [f for f in findings if f.rule == "ast.async-blocking"]
    assert len(blocking) == 3
    assert all(f.severity == "error" for f in blocking)
    messages = " ".join(f.message for f in blocking)
    assert "time.sleep" in messages
    assert "subprocess.run" in messages
    assert "open" in messages


def test_async_blocking_ignores_nested_sync_defs_and_async_sleep():
    findings, _ = _lint(
        """
        import asyncio
        import time

        async def handler():
            await asyncio.sleep(1)

            def pump():
                time.sleep(0.1)  # its own (synchronous) execution context

            return pump
        """
    )
    assert "ast.async-blocking" not in _rules(findings)


def test_async_blocking_is_scoped_to_library_code():
    source = """
    import time

    async def handler():
        time.sleep(1)
    """
    findings, _ = _lint(source, path=NON_LIB)
    assert "ast.async-blocking" not in _rules(findings)
    findings, _ = _lint(source, path=LIB)
    assert "ast.async-blocking" in _rules(findings)


# ---------------------------------------------------------------------------
# ast.print-call
# ---------------------------------------------------------------------------

def test_print_call_fires_in_library_code_only():
    source = 'print("hello")\n'
    findings, _ = lint_source(source, path="src/repro/synth/foo.py")
    assert "ast.print-call" in _rules(findings)
    # The CLI front end and non-library trees may print freely.
    for path in ("src/repro/cli.py", "tools/sradlint.py", "tests/test_x.py"):
        findings, _ = lint_source(source, path=path)
        assert "ast.print-call" not in _rules(findings), path


# ---------------------------------------------------------------------------
# ast.nondeterministic-key
# ---------------------------------------------------------------------------

def test_nondeterministic_key_fires_in_key_functions():
    findings, _ = _lint(
        """
        import random
        import time

        def cache_key(job):
            return hash((job, time.time()))

        def library_fingerprint(lib):
            return random.random()
        """
    )
    hits = [f for f in findings if f.rule == "ast.nondeterministic-key"]
    assert len(hits) == 2
    assert "time.time" in hits[0].message


def test_nondeterministic_key_ignores_non_key_functions():
    findings, _ = _lint(
        """
        import time

        def measure_elapsed():
            return time.time()
        """
    )
    assert "ast.nondeterministic-key" not in _rules(findings)


# ---------------------------------------------------------------------------
# ast.mutable-default
# ---------------------------------------------------------------------------

def test_mutable_default_fires_everywhere():
    findings, _ = _lint(
        """
        def f(items=[]):
            return items

        def g(table={}, *, tags=set()):
            return table, tags

        def ok(items=None, n=3, name="x"):
            return items
        """,
        path=NON_LIB,  # unscoped: fires outside library code too
    )
    hits = [f for f in findings if f.rule == "ast.mutable-default"]
    assert len(hits) == 3


# ---------------------------------------------------------------------------
# ast.dead-import
# ---------------------------------------------------------------------------

def test_dead_import_fires_and_respects_all_and_attribute_roots():
    findings, _ = _lint(
        """
        from __future__ import annotations

        import json
        import os
        import sys as system
        from typing import List

        __all__ = ["List"]

        def use():
            return os.path.sep
        """,
        path=NON_LIB,
    )
    hits = [f for f in findings if f.rule == "ast.dead-import"]
    # json unused, system unused; os used via attribute root, List via __all__.
    assert sorted(f.message for f in hits) == [
        "unused import: import json (as json)",
        "unused import: import sys (as system)",
    ]


# ---------------------------------------------------------------------------
# ast.silent-except
# ---------------------------------------------------------------------------

def test_silent_except_fires_on_pass_and_ellipsis_bodies():
    findings, _ = _lint(
        """
        def f():
            try:
                work()
            except ValueError:
                pass
            try:
                work()
            except (OSError, KeyError):
                ...
            try:
                work()
            except:
                pass
        """
    )
    hits = [f for f in findings if f.rule == "ast.silent-except"]
    assert len(hits) == 3
    assert "except ValueError" in hits[0].message
    assert "except (OSError, KeyError)" in hits[1].message
    assert "except BaseException" in hits[2].message  # bare except


def test_silent_except_quiet_on_handled_bodies_and_non_library_code():
    findings, _ = _lint(
        """
        def f():
            try:
                work()
            except ValueError:
                log("recovered")
            except OSError as error:
                raise RuntimeError("wrapped") from error
        """
    )
    assert "ast.silent-except" not in _rules(findings)
    # Scoped rule: the same silent handler outside src/repro/ is fine
    # (tests legitimately probe error paths with pass bodies).
    findings, _ = _lint(
        """
        try:
            work()
        except ValueError:
            pass
        """,
        path=NON_LIB,
    )
    assert "ast.silent-except" not in _rules(findings)


def test_silent_except_per_line_disable_honoured():
    findings, suppressed = _lint(
        """
        def f():
            try:
                work()
            except ValueError:  # sradlint: disable=ast.silent-except -- probe
                pass
        """
    )
    assert "ast.silent-except" not in _rules(findings)
    assert suppressed == 1


# ---------------------------------------------------------------------------
# Suppression + syntax errors
# ---------------------------------------------------------------------------

def test_line_suppression_by_rule_id_and_all():
    findings, suppressed = _lint(
        """
        print("a")  # sradlint: disable=ast.print-call -- test fixture
        print("b")  # sradlint: disable=all
        print("c")
        """,
        path="src/repro/synth/foo.py",
    )
    assert suppressed == 2
    hits = [f for f in findings if f.rule == "ast.print-call"]
    assert len(hits) == 1
    assert hits[0].line == 4


def test_suppression_for_a_different_rule_does_not_apply():
    findings, suppressed = _lint(
        'print("a")  # sradlint: disable=ast.dead-import\n',
        path="src/repro/synth/foo.py",
    )
    assert suppressed == 0
    assert "ast.print-call" in _rules(findings)


def test_syntax_error_is_reported_as_error_finding():
    findings, _ = _lint("def broken(:\n", path=NON_LIB)
    assert len(findings) == 1
    assert findings[0].rule == "ast.syntax-error"
    assert findings[0].severity == "error"
    assert "syntax error" in findings[0].message


# ---------------------------------------------------------------------------
# Directory walking + report assembly
# ---------------------------------------------------------------------------

def test_lint_paths_walks_and_aggregates(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text("def f(x=[]):\n    return x\n")
    (tmp_path / "pkg" / "good.py").write_text("VALUE = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    report = lint_paths([str(tmp_path)])
    assert report.checked == 2
    assert report.has_errors
    assert _rules(report.findings) == {"ast.mutable-default"}
    files = list(iter_python_files([str(tmp_path)]))
    assert len(files) == 2


# ---------------------------------------------------------------------------
# tools/sradlint.py CLI contract
# ---------------------------------------------------------------------------

def _run(script, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd or str(REPO_ROOT),
    )


def test_sradlint_exits_nonzero_on_error_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    proc = _run(SRADLINT, str(bad))
    assert proc.returncode == 1
    assert "ast.mutable-default" in proc.stdout
    assert "1 error(s)" in proc.stderr


def test_sradlint_exits_zero_on_clean_tree(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")
    proc = _run(SRADLINT, str(good))
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stderr


def test_sradlint_json_format_and_output_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    out = tmp_path / "report.json"
    proc = _run(SRADLINT, "--format", "json", "--output", str(out), str(bad))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["errors"] == 1
    assert payload["findings"][0]["rule"] == "ast.mutable-default"
    assert json.loads(out.read_text()) == payload


def test_sradlint_list_rules_and_rule_filter(tmp_path):
    proc = _run(SRADLINT, "--list-rules")
    assert proc.returncode == 0
    for rule in AST_RULES:
        assert rule.id in proc.stdout
    # --rule filters: a mutable default is invisible to the dead-import rule.
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    proc = _run(SRADLINT, "--rule", "ast.dead-import", str(bad))
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# Dead-import check: ``sradlint --rule ast.dead-import`` replaces the old
# standalone check_imports script, under the same output/exit contracts
# ---------------------------------------------------------------------------

def test_check_imports_shim_output_and_exit_status(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n\nVALUE = 1\n")
    proc = _run(SRADLINT, "--rule", "ast.dead-import", str(bad))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"{bad}:1: error [ast.dead-import] unused import: import os (as os)"
    ]
    assert "1 finding(s) (1 error(s), 0 warning(s))" in proc.stderr


def test_check_imports_shim_clean_exit(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("import os\n\nSEP = os.sep\n")
    proc = _run(SRADLINT, "--rule", "ast.dead-import", str(good))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "0 finding(s) (0 error(s), 0 warning(s))" in proc.stderr


def test_check_imports_shim_honours_suppression(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os  # sradlint: disable=ast.dead-import\n")
    proc = _run(SRADLINT, "--rule", "ast.dead-import", str(bad))
    assert proc.returncode == 0
    assert "0 finding(s)" in proc.stderr and "1 suppressed" in proc.stderr


def test_repo_tree_is_clean_under_both_linters():
    """The tree itself has no violations, and no dead import anywhere."""
    proc = _run(SRADLINT, "src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = _run(
        SRADLINT, "--rule", "ast.dead-import",
        "src", "tests", "benchmarks", "examples", "tools",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
