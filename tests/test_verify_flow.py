"""Verify/flow integration: the verify-off path is byte-identical, the
verify-on path surfaces CEC verdicts through SynthesisResult, EvalRecord and
the CLI without perturbing cache keys or serialised records -- the same
diagnostic-knob contract as lint (tests/test_lint_flow.py)."""

import json

import pytest

from repro.cli import main
from repro.engine.jobs import EvalJob
from repro.engine.records import EvalRecord
from repro.engine.runner import evaluate_job
from repro.flow import FlowSpec
from repro.workloads.registry import build_pattern


@pytest.fixture(scope="module")
def pattern():
    return build_pattern("fifo", 4, 4)


# ---------------------------------------------------------------------------
# Spec plumbing: default-off, default-omitted, never in job keys
# ---------------------------------------------------------------------------

def test_verify_field_defaults_off_and_is_omitted():
    spec = FlowSpec()
    assert spec.verify == 0
    assert "verify" not in spec.to_spec()
    assert "verify" not in spec.to_spec(job_key=True)


def test_verify_field_serialises_when_set_but_never_in_job_keys():
    spec = FlowSpec(verify=1)
    assert spec.to_spec()["verify"] == 1
    assert "verify" not in spec.to_spec(job_key=True)
    assert FlowSpec.from_spec(spec.to_spec()) == spec


def test_verify_field_is_validated():
    with pytest.raises(ValueError):
        FlowSpec(verify=-1)
    with pytest.raises(TypeError):
        FlowSpec(verify=True)


def test_job_keys_identical_with_and_without_verify():
    plain = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec())
    verified = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(verify=1))
    assert plain.key == verified.key
    assert plain.to_spec() == verified.to_spec()


# ---------------------------------------------------------------------------
# Flow stage + SynthesisResult surface
# ---------------------------------------------------------------------------

def test_flow_attaches_verify_report_only_when_enabled(pattern):
    from repro.engine.jobs import build_design

    design = build_design(pattern, "SRAG", "two-hot")
    off = design.synthesize(spec=FlowSpec(opt_level=1))
    assert off.verify_report is None
    on = design.synthesize(spec=FlowSpec(opt_level=1, verify=1))
    assert on.verify_report is not None
    assert on.verify_report.equivalent and on.verify_report.proven
    # Verification must not perturb the measured result.
    assert on.delay_ns == off.delay_ns
    assert on.area_cells == off.area_cells


def test_flow_verifies_working_copy_against_callers_netlist(pattern):
    from repro.engine.jobs import build_design
    from repro.synth.flow import run_synthesis_flow

    netlist = build_design(pattern, "CntAG", "decoders").netlist
    before = (sorted(netlist.nets), sorted(netlist.cells))
    result = run_synthesis_flow(netlist, spec=FlowSpec(opt_level=1, verify=1))
    assert result.verify_report is not None
    assert result.verify_report.equivalent
    # The caller's netlist is untouched (the flow clones before rewriting).
    assert (sorted(netlist.nets), sorted(netlist.cells)) == before


# ---------------------------------------------------------------------------
# EvalRecord: volatile verdicts, byte-identical serialisation
# ---------------------------------------------------------------------------

def test_evaluate_job_collects_verdict_but_never_serialises_it():
    record = evaluate_job(
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(verify=1))
    )
    assert record.status == "ok"
    assert record.verify_result is not None
    assert record.verify_result["equivalent"] is True
    assert "verify_result" not in record.to_dict()


def test_record_jsonl_byte_identical_with_verify_on_and_off():
    record_off = evaluate_job(
        EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec())
    )
    record_on = evaluate_job(
        EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec(verify=1))
    )
    record_off.duration_s = record_on.duration_s = 0.0
    assert json.dumps(record_off.to_dict(), sort_keys=True) == json.dumps(
        record_on.to_dict(), sort_keys=True
    )


def test_record_with_verdict_round_trips_without_it():
    record = EvalRecord(
        workload="w", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k", status="ok",
        verify_result={"equivalent": True, "method": "induction"},
    )
    data = record.to_dict()
    assert "verify_result" not in data
    rebuilt = EvalRecord.from_dict(data, cached=True)
    assert rebuilt.verify_result is None
    assert rebuilt.cached


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_verify_flag_on_generate_path(capsys):
    code = main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4", "--verify"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "verify: equivalent" in captured.out


def test_cli_verify_flag_on_campaign_path(capsys):
    code = main(["--campaign", "smoke", "--verify", "--serial", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert "verify: 0 proven-inequivalent record(s)" in captured.out


# ---------------------------------------------------------------------------
# Guard: --verify and --lint compose in one flow (satellite 6)
# ---------------------------------------------------------------------------

def test_verify_and_lint_compose_in_one_flow(pattern):
    from repro.engine.jobs import build_design

    design = build_design(pattern, "SRAG", "two-hot")
    result = design.synthesize(spec=FlowSpec(opt_level=1, lint=1, verify=1))
    assert result.lint_report is not None
    assert result.verify_report is not None
    assert result.lint_report.findings == []
    assert result.verify_report.equivalent


def test_cli_verify_and_lint_combined_generate(capsys):
    code = main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4",
         "--verify", "--lint"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "lint: 0 finding(s)" in captured.out
    assert "verify: equivalent" in captured.out


def test_cli_verify_and_lint_combined_campaign(capsys):
    code = main(
        ["--campaign", "smoke", "--verify", "--lint", "--serial", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "lint: 0 error-severity finding(s)" in captured.out
    assert "verify: 0 proven-inequivalent record(s)" in captured.out


# ---------------------------------------------------------------------------
# --explore reports the diagnostics its records carry
# ---------------------------------------------------------------------------

EXPLORE_FIFO = ["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore"]


def test_cli_verify_and_lint_on_explore_path(capsys):
    code = main(EXPLORE_FIFO + ["--verify", "--lint"])
    captured = capsys.readouterr()
    assert code == 0
    assert "design space for fifo_4x4" in captured.out
    assert "lint: 0 error-severity finding(s) over 8 freshly" in captured.out
    assert "verify: 0 proven-inequivalent record(s) over 8 freshly" in captured.out


def test_cli_explore_exits_2_on_proven_inequivalence(capsys, monkeypatch):
    import repro.verify.cec
    from repro.verify.cec import CecResult

    monkeypatch.setattr(
        repro.verify.cec,
        "check_equivalence",
        lambda golden, revised: CecResult(equivalent=False, proven=True, method="stub"),
    )
    code = main(EXPLORE_FIFO + ["--verify"])
    captured = capsys.readouterr()
    assert code == 2
    assert "verify: 8 proven-inequivalent record(s)" in captured.out
    assert "NOT equivalent (stub)" in captured.err
