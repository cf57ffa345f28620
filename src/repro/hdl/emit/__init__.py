"""Netlist emitters.

The paper's SRAdGen tool emits synthesisable VHDL for a mapped SRAG.  This
package provides the equivalent back ends for our structural netlists:

* :func:`repro.hdl.emit.vhdl.emit_vhdl` -- structural VHDL-93.
* :func:`repro.hdl.emit.verilog.emit_verilog` -- structural Verilog-2001.
"""

from repro.hdl.emit.verilog import emit_verilog
from repro.hdl.emit.vhdl import emit_vhdl

__all__ = ["emit_vhdl", "emit_verilog"]
