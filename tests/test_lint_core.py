"""Rule-engine core: findings, reports, severities, suppression."""

from repro.lint.core import (
    ERROR,
    INFO,
    WARNING,
    Finding,
    LintReport,
    Rule,
    severity_rank,
)


def _finding(rule="x.rule", severity=ERROR, message="boom", location="a:1", line=1):
    return Finding(
        rule=rule, severity=severity, message=message, location=location, line=line
    )


def test_severity_rank_orders_most_severe_first():
    assert severity_rank(ERROR) < severity_rank(WARNING) < severity_rank(INFO)
    assert severity_rank("mystery") > severity_rank(INFO)


def test_finding_to_dict_and_render():
    finding = _finding(rule="design.comb-loop", location="top.u1", line=0)
    assert finding.to_dict() == {
        "rule": "design.comb-loop",
        "severity": "error",
        "message": "boom",
        "location": "top.u1",
        "line": 0,
    }
    assert finding.render() == "top.u1: error [design.comb-loop] boom"
    # Without a location the line leads with the severity.
    assert Finding(rule="r", severity=WARNING, message="m").render() == "warning [r] m"


def test_rule_finding_constructor_uses_rule_identity():
    class Demo(Rule):
        id = "demo.rule"
        severity = WARNING
        description = "demo"

    rule = Demo()
    finding = rule.finding("msg", location="loc", line=3)
    assert finding.rule == "demo.rule"
    assert finding.severity == WARNING
    assert finding.line == 3
    # Per-finding severity override (a rule may escalate some instances).
    assert rule.finding("msg", severity=ERROR).severity == ERROR


def test_report_counts_and_has_errors():
    report = LintReport(target="top")
    assert not report.has_errors
    assert len(report) == 0
    report.extend([_finding(severity=WARNING), _finding(), _finding(severity=INFO)])
    assert report.error_count == 1
    assert report.warning_count == 1
    assert report.has_errors
    assert len(report) == 3


def test_report_sort_is_severity_then_location():
    report = LintReport(target="top")
    report.extend(
        [
            _finding(rule="b", severity=WARNING, location="z:9", line=9),
            _finding(rule="a", severity=ERROR, location="m:5", line=5),
            _finding(rule="c", severity=ERROR, location="a:2", line=2),
        ]
    )
    report.sort()
    assert [f.rule for f in report.findings] == ["c", "a", "b"]


def test_report_by_rule_groups():
    report = LintReport(
        findings=[_finding(rule="r1"), _finding(rule="r2"), _finding(rule="r1")]
    )
    grouped = report.by_rule()
    assert sorted(grouped) == ["r1", "r2"]
    assert len(grouped["r1"]) == 2


def test_report_summary_render_and_to_dict():
    report = LintReport(
        target="netlist_x",
        findings=[_finding(severity=WARNING, message="w1")],
        suppressed=2,
        checked=10,
    )
    assert "1 finding(s)" in report.summary()
    assert "0 error(s), 1 warning(s)" in report.summary()
    assert "2 suppressed" in report.summary()
    assert "netlist_x" in report.summary()
    rendered = report.render()
    assert rendered.splitlines()[0] == "a:1: warning [x.rule] w1"
    data = report.to_dict()
    assert data["target"] == "netlist_x"
    assert data["errors"] == 0
    assert data["warnings"] == 1
    assert data["suppressed"] == 2
    assert data["checked"] == 10
    assert data["findings"][0]["message"] == "w1"

