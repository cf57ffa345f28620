"""Synchronous binary counter builder.

Binary counters appear in every architecture the paper studies: the CntAG is
built around an address counter whose width grows with the memory size, while
the SRAG only needs the two small control counters ``DivCnt`` and ``PassCnt``
whose widths depend on the repetition structure of the address sequence, not
on the array size.  That asymmetry is what produces the paper's headline
delay trend (Figure 8), so the counter is modelled structurally: a register,
a carry-lookahead incrementer, and wrap-around logic built from an equality
comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hdl.components.adder import build_lookahead_incrementer
from repro.hdl.components.comparator import build_equality_comparator
from repro.hdl.netlist import Bus, Net, Netlist, NetlistError

__all__ = ["BinaryCounter", "build_binary_counter"]


@dataclass
class BinaryCounter:
    """Ports of an elaborated binary counter.

    Attributes
    ----------
    count:
        Current counter value (LSB first).
    terminal_count:
        Asserted while ``count == modulus - 1``.
    width:
        Number of state bits.
    modulus:
        The counter counts ``0 .. modulus - 1`` and then wraps to 0.
    """

    count: Bus
    terminal_count: Net
    width: int
    modulus: int


def counter_width(modulus: int) -> int:
    """Number of bits needed to count ``0 .. modulus - 1``."""
    if modulus < 1:
        raise NetlistError(f"counter modulus must be >= 1, got {modulus}")
    return max(1, (modulus - 1).bit_length())


def build_binary_counter(
    netlist: Netlist,
    modulus: int,
    clk: Net,
    *,
    enable: Optional[Net] = None,
    reset: Optional[Net] = None,
    prefix: str = "cnt",
) -> BinaryCounter:
    """Build a modulo-``modulus`` synchronous up-counter.

    The counter increments on every clock edge for which ``enable`` is high
    (or on every edge when no enable is given), wraps to zero after reaching
    ``modulus - 1`` and resets synchronously to zero when ``reset`` is high.
    Each carry of the increment is an AND tree over the lower bits, as a
    synthesis tool would build it.
    """
    width = counter_width(modulus)
    state = Bus([netlist.new_net(f"{prefix}_q{i}_") for i in range(width)], name=prefix)

    terminal = build_equality_comparator(netlist, state, modulus - 1, prefix=f"{prefix}_tc")
    incremented, _carry = build_lookahead_incrementer(netlist, state, prefix=f"{prefix}_inc")

    if enable is None:
        enable = netlist.const(1)

    # A counter whose modulus fills its width wraps to zero by itself, so no
    # wrap logic is needed; otherwise force a synchronous clear when the
    # terminal count is reached while counting.
    wraps_naturally = modulus == (1 << width)
    if wraps_naturally:
        reset_or_wrap = reset
    else:
        wrap = netlist.new_net(f"{prefix}_wrap")
        netlist.add_cell("AND2", A=terminal, B=enable, Y=wrap)
        if reset is not None:
            reset_or_wrap = netlist.new_net(f"{prefix}_rst")
            netlist.add_cell("OR2", A=reset, B=wrap, Y=reset_or_wrap)
        else:
            reset_or_wrap = wrap

    for i in range(width):
        if reset_or_wrap is None:
            netlist.add_cell(
                "DFF_EN",
                name=f"{prefix}_ff{i}",
                D=incremented[i],
                CLK=clk,
                EN=enable,
                Q=state[i],
            )
        else:
            netlist.add_cell(
                "DFF_EN_RST",
                name=f"{prefix}_ff{i}",
                D=incremented[i],
                CLK=clk,
                EN=enable,
                RST=reset_or_wrap,
                Q=state[i],
            )
    return BinaryCounter(count=state, terminal_count=terminal, width=width, modulus=modulus)
