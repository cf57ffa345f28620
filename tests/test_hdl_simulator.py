"""Unit tests for the two-phase netlist simulator."""

import pytest

from repro.hdl.netlist import Bus, Netlist
from repro.hdl.simulator import SimulationError, Simulator


def _toggle_flop():
    """A single flip-flop wired to toggle every cycle."""
    netlist = Netlist("toggle")
    clk = netlist.add_input("clk")
    q = netlist.new_net("q")
    d = netlist.new_net("d")
    netlist.add_cell("INV", A=q, Y=d)
    netlist.add_cell("DFF", D=d, CLK=clk, Q=q)
    netlist.add_output("q_out", q)
    return netlist


def test_toggle_flop_alternates():
    sim = Simulator(_toggle_flop())
    values = []
    for _ in range(6):
        values.append(sim.peek("q_out"))
        sim.step()
    assert values == [0, 1, 0, 1, 0, 1]


def test_combinational_logic_settles_without_clock():
    netlist = Netlist("comb")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.new_net("y")
    netlist.add_cell("AND2", A=a, B=b, Y=y)
    netlist.add_output("y", y)
    sim = Simulator(netlist)
    sim.poke("a", 1)
    sim.poke("b", 1)
    sim.settle()
    assert sim.peek("y") == 1
    sim.poke("b", 0)
    sim.settle()
    assert sim.peek("y") == 0


def test_poke_unknown_port_raises():
    sim = Simulator(_toggle_flop())
    with pytest.raises(SimulationError):
        sim.poke("nonexistent", 1)
    with pytest.raises(SimulationError):
        sim.peek("nonexistent")


def test_peek_bus_and_poke_bus():
    netlist = Netlist("bus")
    data = netlist.add_input_bus("d", 4)
    netlist.add_output_bus("o", data)
    sim = Simulator(netlist)
    sim.poke_bus(data, 11)
    sim.settle()
    assert sim.peek_bus(data) == 11


def test_peek_onehot_detects_violations():
    netlist = Netlist("onehot")
    bits = netlist.add_input_bus("b", 4)
    netlist.add_output_bus("o", bits)
    sim = Simulator(netlist)
    sim.poke_bus(bits, 0)
    assert sim.peek_onehot(bits) is None
    sim.poke_bus(bits, 4)
    assert sim.peek_onehot(bits) == 2
    sim.poke_bus(bits, 5)
    with pytest.raises(SimulationError):
        sim.peek_onehot(bits)
    foreign = Netlist("other").add_input("foreign")
    with pytest.raises(SimulationError):
        sim.peek_onehot(Bus([foreign]))


def test_step_with_keyword_ports():
    netlist = Netlist("en")
    clk = netlist.add_input("clk")
    en = netlist.add_input("en")
    q = netlist.new_net("q")
    one = netlist.const(1)
    netlist.add_cell("DFF_EN", D=one, CLK=clk, EN=en, Q=q)
    netlist.add_output("q", q)
    sim = Simulator(netlist)
    sim.step(en=0)
    assert sim.peek("q") == 0
    sim.step(en=1)
    assert sim.peek("q") == 1


def test_step_keyword_ports_do_not_persist():
    """Regression: step(**ports) drives ports only for the duration of the call."""
    netlist = Netlist("en2")
    clk = netlist.add_input("clk")
    en = netlist.add_input("en")
    q = netlist.new_net("q")
    one = netlist.const(1)
    netlist.add_cell("DFF_EN", D=one, CLK=clk, EN=en, Q=q)
    netlist.add_output("q", q)
    sim = Simulator(netlist)
    sim.poke("en", 0)
    sim.step(en=1)
    # The keyword drive took effect for the call...
    assert sim.peek("q") == 1
    # ...but the port reads back its pre-call value afterwards, and later
    # steps run with the restored (disabled) value.
    assert sim.peek("en") == 0
    sim.step(3)
    assert sim.peek("en") == 0
    assert sim.peek("q") == 1  # DFF_EN held its state with enable low


def test_poke_bus_and_peek_bus_reject_foreign_nets():
    netlist = Netlist("bus_err")
    data = netlist.add_input_bus("d", 2)
    netlist.add_output_bus("o", data)
    other = Netlist("other")
    foreign = other.add_input("foreign")
    sim = Simulator(netlist)
    with pytest.raises(SimulationError):
        sim.poke_bus(Bus([foreign]), 1)
    with pytest.raises(SimulationError):
        sim.peek_bus(Bus([foreign]))
    with pytest.raises(SimulationError):
        sim.peek(foreign)
    # Non-input nets in the same netlist still raise too.
    driven = netlist.nets[data[0].name]
    assert sim.peek_bus(Bus([driven])) in (0, 1)


def test_reset_pulse():
    netlist = Netlist("rst")
    clk = netlist.add_input("clk")
    reset = netlist.add_input("reset")
    q = netlist.new_net("q")
    one = netlist.const(1)
    netlist.add_cell("DFF_RST", D=one, CLK=clk, RST=reset, Q=q)
    netlist.add_output("q", q)
    sim = Simulator(netlist)
    sim.step()
    assert sim.peek("q") == 1
    sim.reset()
    assert sim.peek("q") == 0


def test_flop_state_query():
    netlist = _toggle_flop()
    sim = Simulator(netlist)
    flop_name = netlist.sequential_cells()[0].name
    assert sim.flop_state(flop_name) == 0
    sim.step()
    assert sim.flop_state(flop_name) == 1
    with pytest.raises(SimulationError):
        sim.flop_state("not_a_flop")


def test_run_sequence_samples_before_edge():
    netlist = Netlist("count1")
    clk = netlist.add_input("clk")
    nxt = netlist.add_input("next")
    q = netlist.new_net("q")
    d = netlist.new_net("d")
    netlist.add_cell("INV", A=q, Y=d)
    netlist.add_cell("DFF_EN", D=d, CLK=clk, EN=nxt, Q=q)
    netlist.add_output("q", q)
    sim = Simulator(netlist)
    samples = sim.run_sequence(Bus([q]), 4)
    assert samples == [0, 1, 0, 1]


@pytest.mark.parametrize("cycles", [16, 64])
def test_sample_addresses_settles_once_per_clock_edge(cycles):
    """Guard against bringing back the pre-edge settle on the sampling path.

    Start-up costs a fixed five settles (construction, the two around the
    reset edge, after releasing reset, after raising ``next``); each sampled
    cycle then costs exactly one settle of the whole topological order.
    """
    from repro.generators.srag_design import SragDesign
    from repro.hdl.simulator import sample_addresses
    from repro.obs import metrics
    from repro.workloads.registry import build_pattern

    design = SragDesign(build_pattern("motion_est_read", 4, 4).to_sequence())
    netlist = design.netlist
    cells = len(netlist.topological_combinational_order())
    settles = metrics.counter("sim.reference.settle_events")
    edges = metrics.counter("sim.reference.cycles")
    sample_addresses(netlist, design.address_encoding, cycles)
    assert metrics.counter("sim.reference.settle_events") - settles == (cycles + 5) * cells
    # One reset edge plus one edge per sample, as before the settle was skipped.
    assert metrics.counter("sim.reference.cycles") - edges == cycles + 1


def test_sample_addresses_evaluates_only_the_flops_whose_inputs_moved():
    """An edge evaluates a flop only after one of its inputs or its state moved.

    The SRAG moves one token per ring per access, so one period of
    ``motion_est_read`` 4x4 (16 samples, 17 edges with the reset edge, 13
    flops) evaluates 198 flops instead of 221, and ``dct`` 64x64 fewer than
    10% of edges times flops.
    """
    from repro.generators.srag_design import SragDesign
    from repro.hdl.simulator import sample_addresses
    from repro.obs import metrics
    from repro.workloads.registry import build_pattern

    def flops_evaluated(workload, size):
        sequence = build_pattern(workload, size, size).to_sequence()
        design = SragDesign(sequence)
        before = metrics.counter("sim.reference.flop_events")
        sample_addresses(design.netlist, design.address_encoding, sequence.length)
        evaluated = metrics.counter("sim.reference.flop_events") - before
        return evaluated, (sequence.length + 1) * len(design.netlist.sequential_cells())

    assert flops_evaluated("motion_est_read", 4) == (198, 221)
    evaluated, bound = flops_evaluated("dct", 64)
    assert evaluated < 0.1 * bound


def test_step_settles_before_the_edge_only_after_a_poke():
    from repro.obs import metrics

    sim = Simulator(_toggle_flop())
    cells = len(sim.netlist.topological_combinational_order())

    def settles_during(call):
        before = metrics.counter("sim.reference.settle_events")
        call()
        return (metrics.counter("sim.reference.settle_events") - before) // cells

    assert settles_during(sim.step) == 1
    assert settles_during(lambda: sim.step(3)) == 3
    sim.poke("clk", 0)
    assert settles_during(sim.step) == 2
    sim.poke("clk", 0)
    assert settles_during(lambda: sim.step(0)) == 1
    assert settles_during(lambda: sim.step(clk=1)) == 2
    # The restored port leaves the design dirty for the next edge.
    assert settles_during(sim.step) == 2
