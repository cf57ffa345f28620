"""Tests for the VHDL / Verilog emitters."""

import hashlib

import pytest

from repro.core.addm_generator import SragAddressGenerator
from repro.engine.jobs import build_design
from repro.flow import FlowSpec
from repro.hdl.components import build_binary_counter
from repro.hdl.emit import emit_verilog, emit_vhdl
from repro.hdl.netlist import Netlist
from repro.workloads.motion_estimation import read_sequence
from repro.workloads.registry import build_pattern


def _small_design():
    netlist = Netlist("small_counter")
    clk = netlist.add_input("clk")
    en = netlist.add_input("next")
    rst = netlist.add_input("reset")
    counter = build_binary_counter(netlist, 5, clk, enable=en, reset=rst)
    netlist.add_output_bus("count", counter.count)
    return netlist


def test_vhdl_contains_entity_and_ports():
    text = emit_vhdl(_small_design())
    assert "entity small_counter is" in text
    assert "architecture structural of small_counter" in text
    assert "clk : in std_logic" in text
    assert "count_0 : out std_logic" in text
    # Every used primitive gets a behavioural entity in the same file.
    assert "entity repro_dff_en_rst is" in text
    assert text.count("port map") == len(_small_design().cells)


def test_vhdl_without_primitives_is_shorter():
    netlist = _small_design()
    full = emit_vhdl(netlist, include_primitives=True)
    bare = emit_vhdl(netlist, include_primitives=False)
    assert len(bare) < len(full)
    assert "entity repro_inv" not in bare


def test_verilog_contains_module_and_instances():
    netlist = _small_design()
    text = emit_verilog(netlist)
    assert "module small_counter(" in text
    assert "input clk;" in text
    assert "output count_0;" in text
    assert "module repro_dff_en_rst(" in text
    assert "endmodule" in text


def test_verilog_balanced_modules():
    text = emit_verilog(_small_design())
    assert text.count("module ") - text.count("endmodule") == 0


def test_emitters_on_generated_srag():
    generator = SragAddressGenerator.from_sequence(read_sequence())
    vhdl = emit_vhdl(generator.netlist)
    verilog = emit_verilog(generator.netlist)
    assert "rs_0" in vhdl and "cs_0" in vhdl
    assert "rs_0" in verilog and "cs_0" in verilog
    # The generated HDL should mention the multiplexors of the SRAG muxes.
    assert "repro_mux2" in vhdl.lower()


def test_emit_validates_netlist():
    netlist = Netlist("broken")
    floating = netlist.new_net("floating")
    y = netlist.new_net("y")
    netlist.add_cell("INV", A=floating, Y=y)
    with pytest.raises(Exception):
        emit_vhdl(netlist)


# ---------------------------------------------------------------------------
# Golden HDL for generators built from gate trees.  The emitters print each
# instance's port map in ``Cell.pins`` order, which the tree builders set
# (output first, then the inputs); the flow's buffers add their own cells.
# A reordered pin dict still simulates, times and lints the same, so only
# the emitted text catches it.
# ---------------------------------------------------------------------------
class GoldenHdlCase:
    """Base: one generator's VHDL and Verilog, before and after the O0 flow."""

    workload, rows, cols = "fifo", 8, 8
    style = variant = ""
    #: sha256 of emit_vhdl / emit_verilog output (primitives included).
    pre_vhdl = pre_verilog = post_vhdl = post_verilog = ""
    buffers = 0

    def _texts(self):
        design = build_design(build_pattern(self.workload, self.rows, self.cols),
                              self.style, self.variant)
        pre = (emit_vhdl(design.netlist), emit_verilog(design.netlist))
        result = design.synthesize(spec=FlowSpec(opt_level=0))
        assert result.buffers_inserted == self.buffers
        return pre + (emit_vhdl(result.netlist), emit_verilog(result.netlist))

    def test_emitted_hdl_matches_the_golden_digests(self):
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in self._texts()]
        assert digests == [self.pre_vhdl, self.pre_verilog, self.post_vhdl, self.post_verilog]


class TestGoldenHdlFsmBinaryFifo8x8(GoldenHdlCase):
    style, variant, buffers = "FSM", "binary", 16
    pre_vhdl = "f4eb6037a5853e9485eecca3a92230ba3f442cd0421920b74e31e6160b725b71"
    pre_verilog = "f3a590e9b5ab0b7a625391ff9368fa8c5a7604be99a2c585af2cddbed35759da"
    post_vhdl = "0ef881470d72c8d2585771fd2e17330c03f7fae20fbaf2e2b9565b51063bae3c"
    post_verilog = "7db6603f463c882bc2f3108fb9c5aa122dbd3d2384af921db4894cc9517b5f6a"


class TestGoldenHdlCntAgDecodersFifo8x8(GoldenHdlCase):
    style, variant, buffers = "CntAG", "decoders", 8
    pre_vhdl = "d371193b187e9a834adf4ccee4711e41c003b503e58e74b37b8aebda14302ede"
    pre_verilog = "0fe40e2748b109bfd64ee12aabbab2133fe29eceb765bf28cb8b636ac6efd4bb"
    post_vhdl = "0b1ffb064e8816486127d2114952df080c6389b47c23b3ea130da20c40f84081"
    post_verilog = "972f958f8d3d4cc03586e76e6987e91755e5801558282f20f29f5fa769d36765"


def test_fsm_binary_verilog_is_the_golden_text():
    # The literal form of the digests above, on a design small enough to
    # read: sum-of-products AND/OR trees with their ``.Y`` pin first.
    design = build_design(build_pattern("fifo", 4, 4), "FSM", "binary")
    assert emit_verilog(design.netlist, include_primitives=False) == _FSM_BINARY_FIFO_4X4


_FSM_BINARY_FIFO_4X4 = """\
module fsm_binary_fifo_4x4(clk, next, reset, rs_0, rs_1, rs_2, rs_3, cs_0, cs_1, cs_2, cs_3);
  input clk;
  input next;
  input reset;
  output rs_0;
  output rs_1;
  output rs_2;
  output rs_3;
  output cs_0;
  output cs_1;
  output cs_2;
  output cs_3;
  wire ns0_inv0_4;
  wire ns1_inv1_6;
  wire ns1_or_s0_12;
  wire ns1_p0_s0_8;
  wire ns1_p1_s0_10;
  wire ns2_inv2_14;
  wire ns2_or_s0_22;
  wire ns2_p0_s0_16;
  wire ns2_p1_s0_18;
  wire ns2_p2_s0_20;
  wire ns3_inv3_24;
  wire ns3_or_s0_34;
  wire ns3_p0_s0_26;
  wire ns3_p1_s0_28;
  wire ns3_p2_s0_30;
  wire ns3_p3_s0_32;
  wire out0_p0_s0_36;
  wire out1_p0_s0_38;
  wire out2_p0_s0_40;
  wire out3_p0_s0_42;
  wire out4_p0_s0_44;
  wire out5_p0_s0_46;
  wire out6_p0_s0_48;
  wire out7_p0_s0_50;
  wire state_0_0;
  wire state_1_1;
  wire state_2_2;
  wire state_3_3;
  assign rs_0 = out0_p0_s0_36;
  assign rs_1 = out1_p0_s0_38;
  assign rs_2 = out2_p0_s0_40;
  assign rs_3 = out3_p0_s0_42;
  assign cs_0 = out4_p0_s0_44;
  assign cs_1 = out5_p0_s0_46;
  assign cs_2 = out6_p0_s0_48;
  assign cs_3 = out7_p0_s0_50;
  repro_inv u5_inv(.A(state_0_0), .Y(ns0_inv0_4));
  repro_inv u7_inv(.A(state_1_1), .Y(ns1_inv1_6));
  repro_and2 u9_and2(.Y(ns1_p0_s0_8), .A(state_0_0), .B(ns1_inv1_6));
  repro_and2 u11_and2(.Y(ns1_p1_s0_10), .A(ns0_inv0_4), .B(state_1_1));
  repro_or2 u13_or2(.Y(ns1_or_s0_12), .A(ns1_p0_s0_8), .B(ns1_p1_s0_10));
  repro_inv u15_inv(.A(state_2_2), .Y(ns2_inv2_14));
  repro_and3 u17_and3(.Y(ns2_p0_s0_16), .A(state_0_0), .B(state_1_1), .C(ns2_inv2_14));
  repro_and2 u19_and2(.Y(ns2_p1_s0_18), .A(ns1_inv1_6), .B(state_2_2));
  repro_and2 u21_and2(.Y(ns2_p2_s0_20), .A(ns0_inv0_4), .B(state_2_2));
  repro_or3 u23_or3(.Y(ns2_or_s0_22), .A(ns2_p0_s0_16), .B(ns2_p1_s0_18), .C(ns2_p2_s0_20));
  repro_inv u25_inv(.A(state_3_3), .Y(ns3_inv3_24));
  repro_and4 u27_and4(.Y(ns3_p0_s0_26), .A(state_0_0), .B(state_1_1), .C(state_2_2), .D(ns3_inv3_24));
  repro_and2 u29_and2(.Y(ns3_p1_s0_28), .A(ns2_inv2_14), .B(state_3_3));
  repro_and2 u31_and2(.Y(ns3_p2_s0_30), .A(ns1_inv1_6), .B(state_3_3));
  repro_and2 u33_and2(.Y(ns3_p3_s0_32), .A(ns0_inv0_4), .B(state_3_3));
  repro_or4 u35_or4(.Y(ns3_or_s0_34), .A(ns3_p0_s0_26), .B(ns3_p1_s0_28), .C(ns3_p2_s0_30), .D(ns3_p3_s0_32));
  repro_and2 u37_and2(.Y(out0_p0_s0_36), .A(ns2_inv2_14), .B(ns3_inv3_24));
  repro_and2 u39_and2(.Y(out1_p0_s0_38), .A(state_2_2), .B(ns3_inv3_24));
  repro_and2 u41_and2(.Y(out2_p0_s0_40), .A(ns2_inv2_14), .B(state_3_3));
  repro_and2 u43_and2(.Y(out3_p0_s0_42), .A(state_2_2), .B(state_3_3));
  repro_and2 u45_and2(.Y(out4_p0_s0_44), .A(ns0_inv0_4), .B(ns1_inv1_6));
  repro_and2 u47_and2(.Y(out5_p0_s0_46), .A(state_0_0), .B(ns1_inv1_6));
  repro_and2 u49_and2(.Y(out6_p0_s0_48), .A(ns0_inv0_4), .B(state_1_1));
  repro_and2 u51_and2(.Y(out7_p0_s0_50), .A(state_0_0), .B(state_1_1));
  repro_dff_en_rst state_ff0(.D(ns0_inv0_4), .CLK(clk), .EN(next), .Q(state_0_0), .RST(reset));
  repro_dff_en_rst state_ff1(.D(ns1_or_s0_12), .CLK(clk), .EN(next), .Q(state_1_1), .RST(reset));
  repro_dff_en_rst state_ff2(.D(ns2_or_s0_22), .CLK(clk), .EN(next), .Q(state_2_2), .RST(reset));
  repro_dff_en_rst state_ff3(.D(ns3_or_s0_34), .CLK(clk), .EN(next), .Q(state_3_3), .RST(reset));
endmodule
"""
