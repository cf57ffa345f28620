"""Tests for the trade-off analysis, design-space explorer and reporting."""


import pytest

from repro.analysis.explorer import explore
from repro.analysis.reporting import format_figure, format_series, format_table
from repro.flow import FlowSpec
from repro.analysis.tradeoff import (
    GeneratorMetrics,
    TradeoffRecord,
    average_factors,
    compare_generators,
    evaluate_cntag,
    evaluate_srag,
)
from repro.workloads import fifo, motion_estimation


# ---------------------------------------------------------------------------
# Trade-off records
# ---------------------------------------------------------------------------

def _record(workload, srag_delay, srag_area, cnt_delay, cnt_area):
    return TradeoffRecord(
        workload=workload,
        rows=16,
        cols=16,
        srag=GeneratorMetrics("SRAG", srag_delay, srag_area, 32),
        cntag=GeneratorMetrics("CntAG", cnt_delay, cnt_area, 10),
    )


def test_factors_computation():
    record = _record("w", 1.0, 3000.0, 2.0, 1000.0)
    assert record.delay_reduction_factor == pytest.approx(2.0)
    assert record.area_increase_factor == pytest.approx(3.0)
    assert "w" in record.describe()


def test_average_factors():
    records = [_record("w", 1.0, 2000.0, 1.5, 1000.0), _record("w", 1.0, 4000.0, 2.5, 1000.0)]
    delay, area = average_factors(records)
    assert delay == pytest.approx(2.0)
    assert area == pytest.approx(3.0)
    with pytest.raises(ValueError):
        average_factors([])


def test_evaluate_and_compare_real_generators():
    pattern = motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    srag = evaluate_srag(pattern)
    cntag = evaluate_cntag(pattern)
    assert srag.style == "SRAG"
    assert cntag.style == "CntAG"
    assert set(cntag.detail) == {"counter", "row_decoder", "column_decoder", "full"}

    record = compare_generators("motion_est_read", pattern)
    # The paper's qualitative claims: SRAG is faster but larger.
    assert record.delay_reduction_factor > 1.0
    assert record.area_increase_factor > 1.0


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def test_explore_covers_multiple_architectures():
    result = explore(fifo.fifo_pattern(4, 4))
    styles = {point.style for point in result.points}
    assert {"SRAG", "CntAG"}.issubset(styles)
    assert result.pareto()
    text = result.describe()
    assert "Pareto" in text


def test_explore_records_inapplicable_architectures():
    result = explore(motion_estimation.new_img_read_pattern(4, 4, 2, 2))
    skipped_styles = {point.style for point in result.skipped}
    # The SFM cannot implement block access.
    assert "SFM" in skipped_styles
    for point in result.skipped:
        assert point.status == "skipped"
        assert point.note


def test_explore_skips_fsm_for_long_sequences():
    result = explore(
        motion_estimation.new_img_read_pattern(8, 8, 2, 2),
        spec=FlowSpec(max_fsm_states=16),
    )
    assert all(point.style != "FSM" for point in result.points)


def test_explore_records_failures_raised_during_evaluation(monkeypatch):
    """Regression: a failure inside synthesize() must be skipped, not raised.

    Candidate construction can succeed while elaboration/synthesis later
    raises (the netlist is built lazily); such failures land in ``skipped``
    like construction failures do.
    """
    from repro.generators.srag_design import SragDesign
    from repro.hdl.netlist import NetlistError

    def explode(self, spec):
        raise NetlistError("elaboration exploded late")

    monkeypatch.setattr(SragDesign, "synthesize", explode)
    result = explore(fifo.fifo_pattern(4, 4))
    srag = next(p for p in result.skipped if p.style == "SRAG")
    assert srag.status == "skipped" and "exploded late" in srag.note
    # The survivors are unaffected.
    assert {p.style for p in result.points} >= {"CntAG", "FSM"}


def test_explore_passes_opt_level_through_to_synthesis():
    raw = explore(fifo.fifo_pattern(8, 8))
    opt = explore(fifo.fifo_pattern(8, 8), spec=FlowSpec(opt_level=1))
    area = {(p.style, p.variant): p.area_cells for p in raw.points}
    area_opt = {(p.style, p.variant): p.area_cells for p in opt.points}
    assert area_opt[("CntAG", "decoders")] < area[("CntAG", "decoders")]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_format_table_alignment_and_floats():
    text = format_table(
        ["name", "value"],
        [["a", 1.234], ["bbbb", 10.0]],
        title="demo",
        float_format="{:.1f}",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "1.2" in text and "10.0" in text
    # Header separator row present.
    assert set(lines[2].replace(" ", "")) == {"-"}


def test_format_series_and_figure():
    series = {"SRAG": [1.0, 1.1], "CntAG": [2.0, 2.2]}
    text = format_series("size", ["16x16", "32x32"], series)
    assert "SRAG" in text and "32x32" in text
    figure = format_figure(
        "Figure 8", "size", ["16x16"], {"SRAG": [1.0]},
        y_label="delay/ns", expectation="SRAG roughly 2x faster",
    )
    assert figure.startswith("=== Figure 8 ===")
    assert "delay/ns" in figure
    assert "2x faster" in figure
