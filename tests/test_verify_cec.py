"""Tests for SAT-based combinational/sequential equivalence checking."""

import pytest

from repro.engine.jobs import STYLE_VARIANTS, build_design
from repro.flow import FlowSpec
from repro.hdl.netlist import Netlist, NetlistError
from repro.core.mapping_params import MappingError
from repro.synth.flow import run_synthesis_flow
from repro.verify.cec import CecResult, Counterexample, check_equivalence
from repro.workloads.registry import available_workloads, build_pattern


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def _and2(name):
    nl = Netlist(name)
    a, b = nl.add_input("a"), nl.add_input("b")
    y = nl.new_net("y")
    nl.add_cell("AND2", name="u1", A=a, B=b, Y=y)
    nl.add_output("y", y)
    return nl


def _nand_inv(name):
    nl = Netlist(name)
    a, b = nl.add_input("a"), nl.add_input("b")
    n = nl.new_net("n")
    y = nl.new_net("y")
    nl.add_cell("NAND2", name="u1", A=a, B=b, Y=n)
    nl.add_cell("INV", name="u2", A=n, Y=y)
    nl.add_output("y", y)
    return nl


def _or2(name):
    nl = Netlist(name)
    a, b = nl.add_input("a"), nl.add_input("b")
    y = nl.new_net("y")
    nl.add_cell("OR2", name="u1", A=a, B=b, Y=y)
    nl.add_output("y", y)
    return nl


def _toggler(name, *, gate="XOR2"):
    """DFF whose D is gate(en, Q): toggles on en for XOR2, broken for XNOR2."""
    nl = Netlist(name)
    clk = nl.add_input("clk")
    en = nl.add_input("en")
    q = nl.new_net("q")
    d = nl.new_net("d")
    nl.add_cell(gate, name="u_gate", A=en, B=q, Y=d)
    nl.add_cell("DFF", name="u_ff", D=d, CLK=clk, Q=q)
    nl.add_output("q", q)
    return nl


def _toggler_restructured(name):
    """Same toggler, structurally different: XNOR then INV."""
    nl = Netlist(name)
    clk = nl.add_input("clk")
    en = nl.add_input("en")
    q = nl.new_net("q")
    n = nl.new_net("n")
    d = nl.new_net("d")
    nl.add_cell("XNOR2", name="u_gate", A=en, B=q, Y=n)
    nl.add_cell("INV", name="u_inv", A=n, Y=d)
    nl.add_cell("DFF", name="u_ff", D=d, CLK=clk, Q=q)
    nl.add_output("q", q)
    return nl


# ---------------------------------------------------------------------------
# Combinational CEC
# ---------------------------------------------------------------------------

def test_combinational_equivalence_is_proven():
    result = check_equivalence(_and2("g"), _nand_inv("r"))
    assert result.equivalent and result.proven
    # A flop-free pair is induction with no matched flops: the same miter.
    assert result.method == "induction"
    assert result.counterexample is None
    assert "equivalent" in result.summary()


def test_combinational_inequivalence_yields_replayed_counterexample():
    result = check_equivalence(_and2("g"), _or2("r"))
    assert not result.equivalent
    assert result.proven
    assert result.method == "bmc"
    cex = result.counterexample
    assert isinstance(cex, Counterexample)
    assert cex.port == "y"
    # AND and OR differ exactly when a != b; BMC may find the first
    # difference at any cycle of its unrolling.
    stimulus = cex.inputs[cex.cycle]
    assert stimulus["a"] != stimulus["b"]
    assert cex.golden_value != cex.revised_value
    assert "differs" in result.summary()


def test_port_mismatch_is_rejected():
    nl = Netlist("other")
    a = nl.add_input("different")
    nl.add_output("y", a)
    with pytest.raises(ValueError):
        check_equivalence(_and2("g"), nl)


def test_identical_netlist_clone_is_equivalent():
    golden = _and2("same")
    result = check_equivalence(golden, golden.clone())
    assert result.equivalent and result.proven


# ---------------------------------------------------------------------------
# Sequential CEC
# ---------------------------------------------------------------------------

def test_sequential_equivalence_proven_by_induction():
    result = check_equivalence(_toggler("g"), _toggler_restructured("r"))
    assert result.equivalent and result.proven
    assert result.method == "induction"


def test_planted_sequential_inequivalence_found_with_real_trace():
    result = check_equivalence(_toggler("g"), _toggler("r", gate="XNOR2"))
    assert not result.equivalent
    assert result.proven
    cex = result.counterexample
    assert cex is not None and cex.port == "q"
    # The trace was replayed on the reference simulator before being
    # reported, so these values are real simulator outputs, not SAT models.
    assert cex.golden_value != cex.revised_value
    assert len(cex.inputs) == cex.cycle + 1
    assert f"cycle {cex.cycle}" in result.summary()


def test_cec_result_serialises():
    result = check_equivalence(_and2("g"), _or2("r"))
    data = result.to_dict()
    assert data["equivalent"] is False
    assert data["counterexample"]["port"] == "y"
    assert isinstance(data["stats"], dict)
    assert isinstance(CecResult(**{
        k: v for k, v in data.items() if k in ("equivalent", "proven", "method")
    }), CecResult)


# ---------------------------------------------------------------------------
# Golden verdicts: the CNF of a product pair, pinned through its stats
# ---------------------------------------------------------------------------

def _proof(vars_, clauses, conflicts, decisions, merged):
    return {
        "equivalent": True, "proven": True, "method": "induction",
        "bound": 0, "note": "", "counterexample": None,
        "stats": {
            "vars": vars_, "clauses": clauses, "conflicts": conflicts,
            "decisions": decisions, "merged_nets": merged,
        },
    }


@pytest.mark.parametrize("style,variant,expected", [
    ("SRAG", "two-hot", _proof(123, 1023, 6, 34, 18)),
    ("CntAG", "decoders", _proof(132, 991, 170, 205, 36)),
    ("FSM", "binary", _proof(143, 1034, 21, 26, 52)),
])
def test_o0_vs_o1_verdict_is_pinned(style, variant, expected):
    """Variable and clause counts plus the solver's search trace change
    whenever the encoding's variable order or clause set does."""
    netlist = build_design(
        build_pattern("motion_est_read", 8, 8), style, variant
    ).netlist
    optimized = run_synthesis_flow(netlist, spec=FlowSpec(opt_level=1)).netlist
    assert check_equivalence(netlist, optimized).to_dict() == expected


# ---------------------------------------------------------------------------
# The acceptance grid: O0 vs O1 formally equivalent everywhere
# ---------------------------------------------------------------------------

def _grid_points():
    points = []
    for workload in available_workloads():
        for style, variant in STYLE_VARIANTS:
            points.append((workload, style, variant))
    return points


@pytest.mark.parametrize("workload,style,variant", _grid_points())
def test_optimized_netlist_formally_equivalent_to_raw(workload, style, variant):
    """CEC proves optimization preserved every design in the 4x4 grid."""
    try:
        design = build_design(build_pattern(workload, 4, 4), style, variant)
    except (MappingError, NetlistError, ValueError):
        pytest.skip(f"{style}/{variant} inapplicable to {workload}")
    netlist = design.netlist
    result = run_synthesis_flow(netlist, spec=FlowSpec(opt_level=1))
    verdict = check_equivalence(netlist, result.netlist)
    assert verdict.equivalent and verdict.proven, verdict.summary()
