"""Design-rule checker: every rule fires on a broken fixture, and the full
style x workload grid comes up clean at O0 and O1 (a pinned invariant)."""

import dataclasses

import pytest

from repro.core.mapping_params import MappingError
from repro.engine.jobs import STYLE_VARIANTS, build_design
from repro.flow import FlowSpec
from repro.hdl.netlist import Cell, Net, Netlist, NetlistError
from repro.lint.design import (
    DESIGN_RULES,
    SAT_DESIGN_RULES,
    lint_netlist,
    rules_for_level,
)
from repro.synth.cell_library import get_library
from repro.workloads.registry import available_workloads, build_pattern


def _rules(report):
    return {finding.rule for finding in report.findings}


def _clean_netlist():
    """A minimal structurally sound design: in -> INV -> DFF -> out."""
    nl = Netlist("clean")
    a = nl.add_input("a")
    clk = nl.add_input("clk")
    inv_out = nl.new_net("inv_out")
    nl.add_cell("INV", A=a, Y=inv_out)
    q = nl.new_net("q")
    nl.add_cell("DFF", D=inv_out, CLK=clk, Q=q)
    nl.add_output("y", q)
    return nl


# ---------------------------------------------------------------------------
# Clean baseline
# ---------------------------------------------------------------------------

def test_clean_netlist_has_zero_findings():
    report = lint_netlist(
        _clean_netlist(), library=get_library("std018"), max_fanout=8
    )
    assert report.findings == []
    assert not report.has_errors
    assert report.checked > 0
    assert report.target == "clean"


def test_rule_catalogue_ids_are_stable():
    catalogue = DESIGN_RULES + SAT_DESIGN_RULES
    assert [rule.id for rule in catalogue] == [
        "design.comb-loop",
        "design.undriven-net",
        "design.multi-driven",
        "design.floating-input",
        "design.dangling-net",
        "design.unknown-cell",
        "design.fanout-limit",
        "design.missing-clock",
        "design.data-on-clk",
        "design.sat-const-net",
        "design.sat-redundant-logic",
    ]
    assert all(rule.severity in ("error", "warning", "info") for rule in catalogue)
    assert all(rule.description for rule in catalogue)


# ---------------------------------------------------------------------------
# Each rule fires on a deliberately broken fixture
# ---------------------------------------------------------------------------

def test_comb_loop_fires():
    nl = Netlist("loopy")
    a = nl.new_net("a")
    b = nl.new_net("b")
    # Two inverters in a ring: legal to build (each output net is undriven at
    # add time), impossible to evaluate.
    nl.add_cell("INV", name="u1", A=a, Y=b)
    nl.add_cell("INV", name="u2", A=b, Y=a)
    with pytest.raises(NetlistError):
        nl.topological_combinational_order()
    report = lint_netlist(nl)
    assert "design.comb-loop" in _rules(report)
    assert report.has_errors


def test_undriven_net_fires_for_cell_input_and_output_port():
    nl = Netlist("undriven")
    floating = nl.new_net("floating")
    y = nl.new_net("y")
    nl.add_cell("INV", A=floating, Y=y)
    nl.add_output("out", nl.new_net("unbacked"))
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.undriven-net"]
    messages = " ".join(f.message for f in findings)
    assert "floating" in messages
    assert "unbacked" in messages


def test_multi_driven_fires():
    nl = Netlist("multi")
    a = nl.add_input("a")
    n1 = nl.new_net("n1")
    n2 = nl.new_net("n2")
    nl.add_cell("INV", name="u1", A=a, Y=n1)
    u2 = nl.add_cell("INV", name="u2", A=a, Y=n2)
    # Corrupt: re-point u2's output at n1 behind the netlist's back.
    u2.pins["Y"] = n1
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.multi-driven"]
    assert len(findings) == 1
    assert "u1.Y" in findings[0].message and "u2.Y" in findings[0].message


def test_multi_driven_fires_for_driven_input_port():
    nl = Netlist("portdrive")
    a = nl.add_input("a")
    b = nl.add_input("b")
    n1 = nl.new_net("n1")
    u1 = nl.add_cell("INV", name="u1", A=b, Y=n1)
    u1.pins["Y"] = a  # corrupt: cell output shorted onto an input port
    report = lint_netlist(nl)
    messages = [
        f.message for f in report.findings if f.rule == "design.multi-driven"
    ]
    assert any("input port" in message for message in messages)


def test_floating_input_fires_for_unconnected_pin():
    nl = Netlist("floating")
    a = nl.add_input("a")
    y = nl.new_net("y")
    cell = nl.add_cell("INV", name="u1", A=a, Y=y)
    del cell.pins["A"]  # corrupt: disconnect the declared input
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.floating-input"]
    assert findings and "u1.A" in findings[0].message


def test_floating_input_fires_for_stale_net_reference():
    nl = Netlist("stale")
    a = nl.add_input("a")
    y = nl.new_net("y")
    cell = nl.add_cell("INV", name="u1", A=a, Y=y)
    cell.pins["A"] = Net(name="ghost")  # a net the netlist never owned
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.floating-input"]
    assert findings and "ghost" in findings[0].message


def test_dangling_net_fires_on_prune_criterion_only():
    nl = _clean_netlist()
    nl.net("orphan")  # no driver, no loads, no port role
    # A driven-but-unused net (dead logic) must NOT be flagged.
    unused = nl.new_net("unused_out")
    nl.add_cell("INV", A=nl.inputs["a"], Y=unused)
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.dangling-net"]
    assert len(findings) == 1
    assert "orphan" in findings[0].message
    assert findings[0].severity == "warning"
    assert not report.has_errors


def test_unknown_cell_fires_for_unknown_primitive():
    nl = _clean_netlist()
    nl._cells["u_bogus"] = Cell(name="u_bogus", cell_type="MYSTERY", pins={})
    report = lint_netlist(nl, library=get_library("std018"))
    findings = [f for f in report.findings if f.rule == "design.unknown-cell"]
    assert findings and "MYSTERY" in findings[0].message


def test_unknown_cell_fires_for_uncharacterised_type():
    nl = _clean_netlist()
    std = get_library("std018")
    gutted = dataclasses.replace(
        std, cells={k: v for k, v in std.cells.items() if k != "INV"}
    )
    report = lint_netlist(nl, library=gutted)
    findings = [f for f in report.findings if f.rule == "design.unknown-cell"]
    assert findings and "not characterised" in findings[0].message


def test_fanout_limit_fires_and_ignores_clk_loads():
    nl = Netlist("fan")
    a = nl.add_input("a")
    clk = nl.add_input("clk")
    hot = nl.new_net("hot")
    nl.add_cell("INV", A=a, Y=hot)
    for i in range(3):
        nl.add_cell("INV", name=f"load{i}", A=hot, Y=nl.new_net(f"o{i}"))
    # CLK fanout is free (clock network is distributed separately): many
    # flops on one clock must not trip the rule.
    for i in range(8):
        nl.add_cell("DFF", name=f"ff{i}", D=hot, CLK=clk, Q=nl.new_net(f"q{i}"))
    report = lint_netlist(nl, max_fanout=4)
    findings = [f for f in report.findings if f.rule == "design.fanout-limit"]
    # hot has 3 INV + 8 DFF D-loads = 11 data loads; clk has 8 CLK loads = 0.
    assert len(findings) == 1
    assert "hot" in findings[0].message
    assert lint_netlist(nl, max_fanout=11).findings == []


def test_missing_clock_fires_for_disconnected_and_undriven_clk():
    nl = Netlist("clockless")
    a = nl.add_input("a")
    ff = nl.add_cell("DFF", name="ff0", D=a, CLK=nl.add_input("clk"), Q=nl.new_net("q"))
    del ff.pins["CLK"]
    nl.add_cell("DFF", name="ff1", D=a, CLK=nl.new_net("dead_clk"), Q=nl.new_net("q1"))
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.missing-clock"]
    messages = " ".join(f.message for f in findings)
    assert "ff0" in messages and "no CLK connection" in messages
    assert "ff1" in messages and "dead_clk" in messages


def test_data_on_clk_fires_for_gated_clock():
    nl = Netlist("gated")
    a = nl.add_input("a")
    derived = nl.new_net("derived_clk")
    nl.add_cell("INV", name="u_gate", A=a, Y=derived)
    nl.add_cell("DFF", name="ff0", D=a, CLK=derived, Q=nl.new_net("q"))
    report = lint_netlist(nl)
    findings = [f for f in report.findings if f.rule == "design.data-on-clk"]
    assert len(findings) == 1
    assert "u_gate.Y" in findings[0].message
    assert report.has_errors


def test_lint_never_mutates_the_netlist():
    nl = _clean_netlist()
    nl.net("orphan")
    before = (sorted(nl.nets), sorted(nl.cells))
    lint_netlist(nl, library=get_library("std018"), max_fanout=8)
    assert (sorted(nl.nets), sorted(nl.cells)) == before


# ---------------------------------------------------------------------------
# SAT-backed rules (lint level >= 2)
# ---------------------------------------------------------------------------

def test_rules_for_level_gates_the_sat_tier():
    assert rules_for_level(1) == DESIGN_RULES
    assert rules_for_level(2) == DESIGN_RULES + SAT_DESIGN_RULES
    assert rules_for_level(7) == DESIGN_RULES + SAT_DESIGN_RULES


def test_sat_const_net_fires_on_provable_constant_and_reports_only_roots():
    nl = Netlist("constcase")
    a = nl.add_input("a")
    y = nl.new_net("y")
    out = nl.new_net("out")
    # XOR(a, a) == 0 no matter what; the downstream INV is then constant
    # too, but only the cone root must be reported.
    nl.add_cell("XOR2", name="u1", A=a, B=a, Y=y)
    nl.add_cell("INV", name="u2", A=y, Y=out)
    nl.add_output("out", out)
    report = lint_netlist(nl, rules=rules_for_level(2))
    hits = [f for f in report.findings if f.rule == "design.sat-const-net"]
    assert len(hits) == 1
    assert hits[0].severity == "warning"
    assert "constant 0" in hits[0].message and repr(y.name) in hits[0].message


def test_sat_const_net_quiet_on_deliberately_tied_logic():
    nl = Netlist("tiecase")
    a = nl.add_input("a")
    t0 = nl.new_net("t0")
    y = nl.new_net("y")
    nl.add_cell("TIE0", name="t", Y=t0)
    nl.add_cell("AND2", name="u1", A=a, B=t0, Y=y)
    nl.add_output("y", y)
    report = lint_netlist(nl, rules=rules_for_level(2))
    assert not [f for f in report.findings if f.rule.startswith("design.sat")]


def test_sat_redundant_logic_fires_on_semantic_duplicate_only():
    nl = Netlist("redundant")
    a = nl.add_input("a")
    b = nl.add_input("b")
    n1, n2, n3 = nl.new_net("n1"), nl.new_net("n2"), nl.new_net("n3")
    # NAND2(a, b) == INV(AND2(a, b)): different structure, same function.
    nl.add_cell("NAND2", name="u1", A=a, B=b, Y=n1)
    nl.add_cell("AND2", name="u2", A=a, B=b, Y=n2)
    nl.add_cell("INV", name="u3", A=n2, Y=n3)
    nl.add_output("o1", n1)
    nl.add_output("o2", n3)
    report = lint_netlist(nl, rules=rules_for_level(2))
    hits = [
        f for f in report.findings if f.rule == "design.sat-redundant-logic"
    ]
    assert len(hits) == 1
    assert hits[0].severity == "info"
    assert "u1" in hits[0].message and "u3" in hits[0].message


def test_sat_rules_skipped_at_level_one():
    nl = Netlist("constcase")
    a = nl.add_input("a")
    y = nl.new_net("y")
    nl.add_cell("XOR2", name="u1", A=a, B=a, Y=y)
    nl.add_output("y", y)
    report = lint_netlist(nl, rules=rules_for_level(1))
    assert not [f for f in report.findings if f.rule.startswith("design.sat")]


# ---------------------------------------------------------------------------
# Pinned invariant: the whole built-in grid lints clean at O0 and O1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("opt_level", [0, 1])
def test_clean_sweep_every_style_and_workload(opt_level):
    """Every synthesised built-in design passes design lint with 0 findings.

    Inapplicable (workload, architecture) pairs are skipped exactly the way
    the campaign engine skips them.
    """
    spec = FlowSpec(opt_level=opt_level, lint=1)
    checked = 0
    for workload in available_workloads():
        pattern = build_pattern(workload, 4, 4)
        for style, variant in STYLE_VARIANTS:
            try:
                design = build_design(pattern, style, variant)
                result = design.synthesize(spec=spec)
            except (MappingError, NetlistError, ValueError):
                continue  # architecture not applicable to this workload
            report = result.lint_report
            assert report is not None
            assert report.findings == [], (
                f"{workload} {style}[{variant}] O{opt_level}: "
                f"{report.render()}"
            )
            checked += 1
    # The grid must not silently degenerate (most pairs are applicable).
    assert checked >= 40
