"""Tests for the logic-optimization pipeline (:mod:`repro.synth.opt`).

The pipeline is only allowed to exist because it is equivalence-preserving:
the optimized netlist must produce a bit-identical stream at every output
port, on both simulators, for every built-in workload and applicable
architecture.  The unit tests pin each pass's rewrites on hand-built
netlists; the property tests pin equivalence, the stats bookkeeping
invariant, and the acceptance criterion that O1 strictly shrinks the CntAG
decoder points of the demo grid.
"""

import pytest

from repro.engine.jobs import STYLE_VARIANTS, build_design
from repro.flow import FlowSpec
from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.synth.flow import run_synthesis_flow
from repro.synth.opt import (
    BufferCollapsePass,
    ConstantFoldPass,
    DeadCellPass,
    InvPairPass,
    OptReport,
    PassManager,
    SharePass,
    optimize_netlist,
)
from repro.workloads.registry import available_workloads, build_pattern


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _output_streams(netlist, cycles, simulator_cls):
    """Per-cycle tuple of every output-port value, after each clock edge."""
    sim = simulator_cls(netlist)
    if "reset" in netlist.inputs:
        sim.poke("reset", 0)
    if "next" in netlist.inputs:
        sim.poke("next", 1)
    stream = []
    for _ in range(cycles):
        sim.step()
        stream.append(
            tuple(sim.peek(net) for net in netlist.outputs.values())
        )
    return stream


def _assert_equivalent(original, optimized, cycles):
    """Both netlists, both simulators, bit-identical output streams."""
    reference = _output_streams(original, cycles, Simulator)
    assert _output_streams(optimized, cycles, Simulator) == reference
    assert _output_streams(optimized, cycles, CompiledSimulator) == reference
    assert _output_streams(original, cycles, CompiledSimulator) == reference


def _optimize_clone(netlist, **kwargs):
    clone = netlist.clone()
    report = optimize_netlist(clone, **kwargs)
    clone.validate()
    return clone, report


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def test_const_fold_replaces_fully_constant_cone():
    netlist = Netlist("const")
    a = netlist.add_input("a")
    zero = netlist.const(0)
    y = netlist.new_net("y")
    netlist.add_cell("AND2", A=a, B=zero, Y=y)  # a & 0 == 0
    netlist.add_output("y", y)
    opt, report = _optimize_clone(netlist, passes=[ConstantFoldPass()])
    assert report.changed
    # The AND is gone; the output is tie-driven.
    assert all(c.cell_type != "AND2" for c in opt.cells.values())
    out_net = opt.outputs["y"]
    assert out_net.driver[0].cell_type == "TIE0"
    _assert_equivalent(netlist, opt, 4)


def test_const_fold_wires_through_identity_inputs():
    netlist = Netlist("wire")
    a = netlist.add_input("a")
    one = netlist.const(1)
    y = netlist.new_net("y")
    netlist.add_cell("AND2", A=a, B=one, Y=y)  # a & 1 == a
    netlist.add_output("y", y)
    opt, _ = _optimize_clone(netlist, passes=[ConstantFoldPass(), DeadCellPass()])
    # Output port now aliases the input directly; all logic folded away.
    assert opt.outputs["y"] is opt.inputs["a"]
    assert len(opt.cells) == 0


def test_const_fold_rewrites_controlled_nand_as_inverter():
    netlist = Netlist("nandinv")
    a = netlist.add_input("a")
    one = netlist.const(1)
    y = netlist.new_net("y")
    netlist.add_cell("NAND2", A=a, B=one, Y=y)  # ~(a & 1) == ~a
    netlist.add_output("y", y)
    opt, _ = _optimize_clone(netlist, passes=[ConstantFoldPass(), DeadCellPass()])
    assert [c.cell_type for c in opt.cells.values()] == ["INV"]
    _assert_equivalent(netlist, opt, 2)


def test_const_fold_mux_with_constant_select():
    netlist = Netlist("muxsel")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    sel = netlist.const(1)
    y = netlist.new_net("y")
    netlist.add_cell("MUX2", A=a, B=b, S=sel, Y=y)  # S=1 selects B
    netlist.add_output("y", y)
    opt, _ = _optimize_clone(netlist, passes=[ConstantFoldPass(), DeadCellPass()])
    assert opt.outputs["y"] is opt.inputs["b"]


def test_const_fold_mux_with_identical_data_inputs():
    netlist = Netlist("muxsame")
    a = netlist.add_input("a")
    s = netlist.add_input("s")
    y = netlist.new_net("y")
    netlist.add_cell("MUX2", A=a, B=a, S=s, Y=y)  # both arms are `a`
    netlist.add_output("y", y)
    opt, _ = _optimize_clone(netlist, passes=[ConstantFoldPass(), DeadCellPass()])
    assert opt.outputs["y"] is opt.inputs["a"]


def test_const_fold_flop_stuck_at_reset_state():
    netlist = Netlist("deadflop")
    clk = netlist.add_input("clk")
    zero = netlist.const(0)
    q = netlist.new_net("q")
    netlist.add_cell("DFF", D=zero, CLK=clk, Q=q)  # starts 0, loads 0 forever
    netlist.add_output("q", q)
    opt, _ = _optimize_clone(netlist, passes=[ConstantFoldPass()])
    assert not opt.sequential_cells()
    assert opt.outputs["q"].driver[0].cell_type == "TIE0"
    _assert_equivalent(netlist, opt, 4)


def test_const_fold_keeps_flop_that_can_leave_reset_state():
    netlist = Netlist("liveflop")
    clk = netlist.add_input("clk")
    one = netlist.const(1)
    q = netlist.new_net("q")
    netlist.add_cell("DFF", D=one, CLK=clk, Q=q)  # 0 on cycle 0, then 1
    netlist.add_output("q", q)
    opt, _ = _optimize_clone(netlist)
    assert len(opt.sequential_cells()) == 1
    _assert_equivalent(netlist, opt, 4)


# ---------------------------------------------------------------------------
# Sharing (structural CSE)
# ---------------------------------------------------------------------------

def test_share_merges_commutative_duplicates():
    netlist = Netlist("cse")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y1 = netlist.new_net("y1")
    y2 = netlist.new_net("y2")
    netlist.add_cell("AND2", A=a, B=b, Y=y1)
    netlist.add_cell("AND2", A=b, B=a, Y=y2)  # same function, swapped pins
    netlist.add_output("y1", y1)
    netlist.add_output("y2", y2)
    opt, report = _optimize_clone(netlist, passes=[SharePass()])
    assert len(opt.cells) == 1
    assert report.passes[0].merged == 1
    # Both ports alias the surviving cell's output.
    assert opt.outputs["y1"] is opt.outputs["y2"]
    _assert_equivalent(netlist, opt, 2)


def test_share_keeps_noncommutative_cells_apart():
    netlist = Netlist("mux")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    s = netlist.add_input("s")
    y1 = netlist.new_net("y1")
    y2 = netlist.new_net("y2")
    netlist.add_cell("MUX2", A=a, B=b, S=s, Y=y1)
    netlist.add_cell("MUX2", A=b, B=a, S=s, Y=y2)  # swapped arms differ!
    netlist.add_output("y1", y1)
    netlist.add_output("y2", y2)
    opt, report = _optimize_clone(netlist, passes=[SharePass()])
    assert len(opt.cells) == 2
    assert not report.changed


def test_share_merges_identical_flops():
    netlist = Netlist("ffpair")
    clk = netlist.add_input("clk")
    d = netlist.add_input("d")
    q1 = netlist.new_net("q1")
    q2 = netlist.new_net("q2")
    netlist.add_cell("DFF", D=d, CLK=clk, Q=q1)
    netlist.add_cell("DFF", D=d, CLK=clk, Q=q2)
    netlist.add_output("q1", q1)
    netlist.add_output("q2", q2)
    opt, _ = _optimize_clone(netlist, passes=[SharePass()])
    assert len(opt.sequential_cells()) == 1
    _assert_equivalent(netlist, opt, 4)


# ---------------------------------------------------------------------------
# Inverter pairs and buffer chains
# ---------------------------------------------------------------------------

def test_inv_pair_collapses_even_chains():
    netlist = Netlist("invchain")
    a = netlist.add_input("a")
    n1, n2, n3, n4 = (netlist.new_net(f"n{i}") for i in range(4))
    netlist.add_cell("INV", A=a, Y=n1)
    netlist.add_cell("INV", A=n1, Y=n2)
    netlist.add_cell("INV", A=n2, Y=n3)
    netlist.add_cell("INV", A=n3, Y=n4)
    netlist.add_output("y", n4)  # ~~~~a == a
    opt, _ = _optimize_clone(netlist, passes=[InvPairPass(), DeadCellPass()])
    assert opt.outputs["y"] is opt.inputs["a"]
    assert len(opt.cells) == 0


def test_inv_pair_keeps_odd_parity():
    netlist = Netlist("odd")
    a = netlist.add_input("a")
    n1, n2, n3 = (netlist.new_net(f"n{i}") for i in range(3))
    netlist.add_cell("INV", A=a, Y=n1)
    netlist.add_cell("INV", A=n1, Y=n2)
    netlist.add_cell("INV", A=n2, Y=n3)
    netlist.add_output("y", n3)  # ~~~a == ~a
    opt, _ = _optimize_clone(netlist)
    assert [c.cell_type for c in opt.cells.values()] == ["INV"]
    _assert_equivalent(netlist, opt, 2)


def test_buffer_chain_collapses_to_direct_wiring():
    netlist = Netlist("bufchain")
    a = netlist.add_input("a")
    n1 = netlist.new_net("n1")
    n2 = netlist.new_net("n2")
    y = netlist.new_net("y")
    netlist.add_cell("BUF", A=a, Y=n1)
    netlist.add_cell("BUF", A=n1, Y=n2)
    netlist.add_cell("INV", A=n2, Y=y)
    netlist.add_output("y", y)
    opt, report = _optimize_clone(netlist, passes=[BufferCollapsePass()])
    assert [c.cell_type for c in opt.cells.values()] == ["INV"]
    assert report.passes[0].removed == 2
    # The inverter now reads the input directly.
    inv = next(iter(opt.cells.values()))
    assert inv.pins["A"] is opt.inputs["a"]


# ---------------------------------------------------------------------------
# Dead-cell elimination
# ---------------------------------------------------------------------------

def test_dead_cells_removes_unobserved_cones_only():
    netlist = Netlist("dead")
    a = netlist.add_input("a")
    clk = netlist.add_input("clk")
    live = netlist.new_net("live")
    netlist.add_cell("INV", A=a, Y=live)
    netlist.add_output("y", live)
    # A dead register cone: flop feeding a gate nobody reads.
    dq = netlist.new_net("dq")
    dead = netlist.new_net("deadnet")
    netlist.add_cell("DFF", D=a, CLK=clk, Q=dq)
    netlist.add_cell("AND2", A=dq, B=a, Y=dead)
    net_count_before = len(netlist.nets)
    opt, report = _optimize_clone(netlist, passes=[DeadCellPass()])
    assert [c.cell_type for c in opt.cells.values()] == ["INV"]
    assert report.passes[0].removed == 2
    # Dangling nets went with the cells; ports survive.
    assert len(opt.nets) < net_count_before
    assert set(opt.inputs) == {"a", "clk"} and set(opt.outputs) == {"y"}


def test_dead_cells_keeps_flop_feedback_cones():
    netlist = Netlist("fb")
    clk = netlist.add_input("clk")
    q = netlist.new_net("q")
    d = netlist.new_net("d")
    netlist.add_cell("INV", A=q, Y=d)  # feedback: only reachable through flop
    netlist.add_cell("DFF", D=d, CLK=clk, Q=q)
    netlist.add_output("q", q)
    opt, report = _optimize_clone(netlist, passes=[DeadCellPass()])
    assert len(opt.cells) == 2
    assert not report.changed


# ---------------------------------------------------------------------------
# Manager / report bookkeeping
# ---------------------------------------------------------------------------

def test_opt_level_zero_is_identity():
    netlist = build_design(build_pattern("fifo", 8, 8), "CntAG", "decoders").netlist
    result = run_synthesis_flow(netlist, spec=FlowSpec(opt_level=0))
    assert result.opt_report is None
    # Only the buffer trees join the generated cells.
    assert len(result.netlist.cells) == len(netlist.cells) + result.buffers_inserted


def test_negative_opt_level_rejected():
    with pytest.raises(ValueError, match="opt_level must be >= 0"):
        FlowSpec(opt_level=-1)
    with pytest.raises(ValueError):
        PassManager([DeadCellPass()], max_rounds=0)


def test_report_accounting_and_describe():
    netlist = build_design(build_pattern("dct", 8, 8), "CntAG", "decoders").netlist
    clone = netlist.clone()
    report = optimize_netlist(clone)
    assert isinstance(report, OptReport)
    # The headline invariant: net removals + survivors == original count.
    assert report.cells_removed + report.final_cells == report.original_cells
    gross_removed = sum(stats.removed for stats in report.passes)
    gross_added = sum(stats.added for stats in report.passes)
    assert report.original_cells + gross_added - gross_removed == report.final_cells
    assert report.cells_removed > 0
    assert all(stats.iterations >= 1 for stats in report.passes)
    text = report.describe()
    assert "logic optimization" in text
    for stats in report.passes:
        assert stats.name in text


def test_pipeline_reaches_fixpoint():
    """Optimizing an already-optimized netlist must change nothing."""
    netlist = build_design(build_pattern("zoombytwo", 8, 8), "CntAG", "decoders").netlist
    first = netlist.clone()
    optimize_netlist(first)
    again = optimize_netlist(first)
    assert not again.changed
    assert again.cells_removed == 0


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------

def test_flow_runs_opt_before_buffering_and_reports_it():
    design = build_design(build_pattern("motion_est_read", 16, 16), "CntAG", "decoders")
    raw = run_synthesis_flow(design.netlist)
    opt = run_synthesis_flow(design.netlist, spec=FlowSpec(opt_level=1))
    assert raw.opt_report is None
    assert opt.opt_report is not None and opt.opt_report.cells_removed > 0
    assert opt.area_cells < raw.area_cells
    # The caller's netlist is untouched by either run.
    assert len(design.netlist.cells) == opt.opt_report.original_cells


# ---------------------------------------------------------------------------
# Equivalence: every built-in workload x applicable style
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", available_workloads())
@pytest.mark.parametrize("style,variant", STYLE_VARIANTS)
def test_optimized_netlist_is_bit_identical(workload, style, variant):
    """The address stream survives O1 bit-for-bit, on both simulators."""
    pattern = build_pattern(workload, 4, 4)
    try:
        design = build_design(pattern, style, variant)
        netlist = design.netlist
    except Exception:
        pytest.skip(f"{style}[{variant}] not applicable to {workload}")
    optimized, report = _optimize_clone(netlist)
    # Bookkeeping holds on every real design, not just the hand-built ones.
    assert report.cells_removed + report.final_cells == report.original_cells
    cycles = min(pattern.to_sequence().length, 48)
    _assert_equivalent(netlist, optimized, cycles)


def test_optimization_strictly_shrinks_cntag_decoder_demo_points():
    """Acceptance: O1 reduces total cells on every CntAG[decoders] demo point."""
    for workload in ("fifo", "dct", "motion_est_read", "zoombytwo"):
        for size in (4, 8, 16):
            design = build_design(
                build_pattern(workload, size, size), "CntAG", "decoders"
            )
            raw = run_synthesis_flow(design.netlist)
            opt = run_synthesis_flow(design.netlist, spec=FlowSpec(opt_level=1))
            raw_cells = sum(raw.area.cell_counts.values())
            opt_cells = sum(opt.area.cell_counts.values())
            assert opt_cells < raw_cells, (
                f"CntAG[decoders] {workload} {size}x{size}: "
                f"O1 {opt_cells} !< O0 {raw_cells}"
            )
