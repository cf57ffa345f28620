"""Tests for the standard-cell library, timing analysis and area accounting."""

from dataclasses import FrozenInstanceError

import pytest

from repro.hdl.components import build_binary_counter, build_decoder
from repro.hdl.netlist import Netlist
from repro.synth.area import area_report
from repro.synth.cell_library import STD018, CellLibrary
from repro.synth.flow import run_synthesis_flow
from repro.synth.timing import timing_report


def test_library_covers_every_primitive():
    from repro.hdl.primitives import PRIMITIVES

    for cell_type in PRIMITIVES:
        assert cell_type in STD018, f"{cell_type} missing from the library"
        assert STD018.area_of(cell_type) >= 0


def test_flip_flops_are_marked_sequential():
    assert STD018["DFF"].sequential
    assert STD018["DFF_EN_RST"].sequential
    assert not STD018["NAND2"].sequential
    assert STD018.clk_to_q("DFF") > 0
    assert STD018.setup("DFF") > 0
    assert STD018.clk_to_q("NAND2") == 0


def test_gate_delay_increases_with_load():
    light = STD018.gate_delay("INV", 1.0)
    heavy = STD018.gate_delay("INV", 10.0)
    assert heavy > light > 0


def test_unknown_cell_raises():
    with pytest.raises(KeyError):
        STD018.area_of("NOT_A_CELL")


def test_scaled_library():
    scaled = STD018.scaled("fast", area_scale=0.5, delay_scale=0.5)
    assert isinstance(scaled, CellLibrary)
    assert scaled.area_of("DFF") == pytest.approx(STD018.area_of("DFF") * 0.5)
    assert scaled.tau == pytest.approx(STD018.tau * 0.5)
    assert scaled.gate_delay("INV", 4.0) < STD018.gate_delay("INV", 4.0)


def test_library_is_frozen():
    """A registered name stands for one characterisation: no library changes in place."""
    with pytest.raises(FrozenInstanceError):
        STD018.tau = 0.04
    assert STD018.tau == 0.02


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _inverter_chain(length):
    netlist = Netlist("chain")
    a = netlist.add_input("a")
    net = a
    for i in range(length):
        out = netlist.new_net(f"n{i}")
        netlist.add_cell("INV", A=net, Y=out)
        net = out
    netlist.add_output("y", net)
    return netlist


def test_longer_chain_has_larger_delay():
    short = timing_report(_inverter_chain(2))
    long = timing_report(_inverter_chain(10))
    assert long.critical_path_delay > short.critical_path_delay
    assert long.levels == 10


def test_timing_includes_clk_to_q_and_setup():
    netlist = Netlist("ff2ff")
    clk = netlist.add_input("clk")
    q1 = netlist.new_net("q1")
    q2 = netlist.new_net("q2")
    n = netlist.new_net("n")
    netlist.add_cell("DFF", D=q2, CLK=clk, Q=q1)
    netlist.add_cell("INV", A=q1, Y=n)
    netlist.add_cell("DFF", D=n, CLK=clk, Q=q2)
    report = timing_report(netlist)
    minimum = STD018.clk_to_q("DFF") + STD018.setup("DFF")
    assert report.critical_path_delay > minimum
    assert "register setup" in report.endpoint


def test_timing_report_describe_lists_path():
    report = timing_report(_inverter_chain(3))
    text = report.describe()
    assert "critical path delay" in text
    assert text.count("INV") == 3


def test_decoder_delay_grows_with_size():
    def decoder_delay(width):
        netlist = Netlist("dec")
        clk = netlist.add_input("clk")
        registered = []
        for i in range(width):
            q = netlist.new_net(f"q{i}")
            netlist.add_cell("DFF", D=netlist.const(0), CLK=clk, Q=q)
            registered.append(q)
        decoder = build_decoder(netlist, registered)
        netlist.add_output_bus("sel", decoder.outputs)
        return run_synthesis_flow(netlist).delay_ns

    assert decoder_delay(8) > decoder_delay(4) > decoder_delay(2)


# ---------------------------------------------------------------------------
# Area
# ---------------------------------------------------------------------------

def test_area_report_sums_cells():
    netlist = Netlist("area")
    a = netlist.add_input("a")
    y1 = netlist.new_net("y1")
    y2 = netlist.new_net("y2")
    netlist.add_cell("INV", A=a, Y=y1)
    netlist.add_cell("INV", A=y1, Y=y2)
    netlist.add_output("y", y2)
    report = area_report(netlist)
    assert report.total == pytest.approx(2 * STD018.area_of("INV"))
    assert report.sequential == 0
    assert report.cell_counts["INV"] == 2
    assert report.flip_flop_count == 0
    assert "INV" in report.describe()


def test_area_separates_sequential_and_combinational():
    netlist = Netlist("area2")
    clk = netlist.add_input("clk")
    counter = build_binary_counter(netlist, 8, clk)
    netlist.add_output_bus("c", counter.count)
    report = area_report(netlist)
    assert report.sequential > 0
    assert report.combinational > 0
    assert report.total == pytest.approx(report.sequential + report.combinational)
    assert report.flip_flop_count == 3


def test_synthesis_flow_produces_consistent_result():
    netlist = Netlist("flow")
    clk = netlist.add_input("clk")
    counter = build_binary_counter(netlist, 16, clk)
    netlist.add_output_bus("c", counter.count)
    result = run_synthesis_flow(netlist, name="flow_test")
    assert result.name == "flow_test"
    assert result.delay_ns > 0
    assert result.area_cells > 0
    assert "delay" in result.summary()
