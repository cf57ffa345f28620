"""SFM-style pointer address generator (Aloqeely's architecture).

The Sequential FIFO Memory replaces the address decoder with two one-hot
shift registers: a head pointer selecting the next cell to read and a tail
pointer selecting the next cell to write.  This module elaborates that
pointer pair structurally so the ``fifo`` row of Table 3 has a faithful prior
-art data point and so its one-dimensional, one-hot cost can be compared with
the SRAG's two-hot cost.

The design only supports incremental (FIFO) access -- asking it to implement
anything else raises immediately, demonstrating the limitation the paper
lists as the motivation for the SRAG.
"""

from __future__ import annotations

from repro.generators.base import AddressGeneratorDesign
from repro.hdl.components.shift_register import build_token_shift_register
from repro.hdl.netlist import Netlist, NetlistError, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.workloads.sequences import AddressSequence

__all__ = ["SfmPointerGenerator"]


class SfmPointerGenerator(AddressGeneratorDesign):
    """Head/tail one-hot pointer registers of a Sequential FIFO Memory."""

    style = "SFM"

    def __init__(self, sequence: AddressSequence):
        if not sequence.is_incremental():
            raise NetlistError(
                "the SFM is a FIFO memory and only supports incremental "
                f"access; sequence {sequence.name!r} is not incremental"
            )
        super().__init__(sequence, f"sfm_{sequence.name}")
        self.depth = sequence.length
        # The address is the cell the head (read) pointer selects.
        self.address_encoding = AddressEncoding((("head_sel", self.depth),), onehot=True)

    def elaborate(self) -> Netlist:
        netlist = Netlist(sanitise_name(self.name))
        clk = netlist.add_input("clk")
        next_read = netlist.add_input("next")
        next_write = netlist.add_input("next_write")
        reset = netlist.add_input("reset")

        pointers = []
        for role, advance in (("head", next_read), ("tail", next_write)):
            serial_in = netlist.new_net(f"{role}_in")
            register = build_token_shift_register(
                netlist,
                self.depth,
                clk,
                serial_in,
                enable=advance,
                reset=reset,
                token_at=0,
                prefix=role,
            )
            netlist.add_cell("BUF", A=register.serial_out, Y=serial_in)
            netlist.add_output_bus(f"{role}_sel", register.outputs)
            pointers.append(register)
        return netlist
