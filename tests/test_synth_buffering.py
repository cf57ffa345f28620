"""Tests for high-fanout buffer-tree insertion."""

import pytest

from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.synth.buffering import insert_buffer_trees
from repro.synth.timing import timing_report


def _wide_fanout_design(fanout):
    """One input inverter driving ``fanout`` AND gates."""
    netlist = Netlist("fanout")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    hub = netlist.new_net("hub")
    netlist.add_cell("INV", A=a, Y=hub)
    for i in range(fanout):
        out = netlist.new_net(f"o{i}")
        netlist.add_cell("AND2", A=hub, B=b, Y=out)
        netlist.add_output(f"y_{i}", out)
    return netlist


def test_no_buffers_below_limit():
    netlist = _wide_fanout_design(6)
    assert insert_buffer_trees(netlist, max_fanout=8) == 0


def test_buffers_inserted_and_fanout_bounded():
    netlist = _wide_fanout_design(100)
    inserted = insert_buffer_trees(netlist, max_fanout=8)
    assert inserted > 0
    for net in netlist.nets.values():
        data_loads = [
            (cell, pin)
            for cell, pin in net.loads
            if not (cell.spec.sequential and pin == "CLK")
        ]
        assert len(data_loads) <= 8, f"net {net.name} still drives {len(data_loads)} pins"


def test_buffering_preserves_function():
    netlist = _wide_fanout_design(40)
    insert_buffer_trees(netlist, max_fanout=4)
    sim = Simulator(netlist)
    sim.poke("a", 0)
    sim.poke("b", 1)
    sim.settle()
    # INV(0) = 1, AND(1, 1) = 1 on every output.
    assert all(sim.peek(f"y_{i}") == 1 for i in range(40))
    sim.poke("a", 1)
    sim.settle()
    assert all(sim.peek(f"y_{i}") == 0 for i in range(40))


def test_buffering_reduces_delay_for_huge_fanout():
    unbuffered = _wide_fanout_design(400)
    buffered = _wide_fanout_design(400)
    before = timing_report(unbuffered).critical_path_delay
    insert_buffer_trees(buffered, max_fanout=8)
    after = timing_report(buffered).critical_path_delay
    assert after < before


def test_clock_pins_are_not_buffered():
    netlist = Netlist("clk")
    clk = netlist.add_input("clk")
    for i in range(50):
        q = netlist.new_net(f"q{i}")
        netlist.add_cell("DFF", D=netlist.const(0), CLK=clk, Q=q)
        netlist.add_output(f"o_{i}", q)
    assert insert_buffer_trees(netlist, max_fanout=8) == 0


def test_invalid_max_fanout_rejected():
    netlist = _wide_fanout_design(4)
    with pytest.raises(ValueError):
        insert_buffer_trees(netlist, max_fanout=1)


def _hub_with_clock_loads(data_loads, clock_loads):
    """Input ``hub`` feeding ``data_loads`` inverters and ``clock_loads`` flop clocks."""
    netlist = Netlist("mixed")
    hub = netlist.add_input("hub")
    for i in range(data_loads):
        out = netlist.new_net(f"o{i}")
        netlist.add_cell("INV", A=hub, Y=out)
        netlist.add_output(f"y_{i}", out)
    for i in range(clock_loads):
        q = netlist.new_net(f"q{i}")
        netlist.add_cell("DFF", D=netlist.const(0), CLK=hub, Q=q)
        netlist.add_output(f"q_{i}", q)
    return netlist, hub


def test_clock_loads_do_not_count_towards_the_fanout_limit():
    # More loads than the limit in total, but only max_fanout data loads.
    netlist, hub = _hub_with_clock_loads(8, 5)
    assert len(hub.loads) > 8
    assert insert_buffer_trees(netlist, max_fanout=8) == 0


def test_one_data_load_over_the_limit_is_buffered():
    netlist, hub = _hub_with_clock_loads(9, 5)
    assert insert_buffer_trees(netlist, max_fanout=8) > 0
    clock_pins = [pin for cell, pin in hub.loads if cell.spec.sequential]
    assert clock_pins == ["CLK"] * 5
    assert len(hub.loads) - len(clock_pins) <= 8
