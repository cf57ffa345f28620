"""Ripple-carry adder and lookahead incrementer builders.

The arithmetic-based address-generator baseline and the CntAG's adder variant
sum their operands with a ripple-carry adder (full adders composed from
XOR/AND/OR gates), whose delay grows linearly with operand width.  The binary
counters of both the CntAG and the SRAG control circuitry increment with a
carry-lookahead incrementer, whose delay grows with ``log(width)``; that is
still what makes wide address counters slower than the small SRAG control
counters.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.hdl.components.gates import build_and_tree
from repro.hdl.netlist import Bus, Net, Netlist, NetlistError

__all__ = [
    "build_half_adder",
    "build_full_adder",
    "build_ripple_adder",
    "build_lookahead_incrementer",
]


def build_half_adder(
    netlist: Netlist, a: Net, b: Net, prefix: str = "ha"
) -> Tuple[Net, Net]:
    """Build a half adder; returns ``(sum, carry)``."""
    s = netlist.new_net(f"{prefix}_s")
    c = netlist.new_net(f"{prefix}_c")
    netlist.add_cell("XOR2", A=a, B=b, Y=s)
    netlist.add_cell("AND2", A=a, B=b, Y=c)
    return s, c


def build_full_adder(
    netlist: Netlist, a: Net, b: Net, cin: Net, prefix: str = "fa"
) -> Tuple[Net, Net]:
    """Build a full adder from two half adders; returns ``(sum, carry)``."""
    s1, c1 = build_half_adder(netlist, a, b, prefix=f"{prefix}_h0")
    s2, c2 = build_half_adder(netlist, s1, cin, prefix=f"{prefix}_h1")
    cout = netlist.new_net(f"{prefix}_co")
    netlist.add_cell("OR2", A=c1, B=c2, Y=cout)
    return s2, cout


def build_ripple_adder(
    netlist: Netlist,
    a: Sequence[Net],
    b: Sequence[Net],
    *,
    prefix: str = "add",
) -> Tuple[Bus, Net]:
    """Build a ripple-carry adder ``a + b``.

    Returns the sum bus (same width as the operands) and the carry-out net.
    """
    if len(a) != len(b):
        raise NetlistError(f"adder operand widths differ: {len(a)} vs {len(b)}")
    if not a:
        raise NetlistError("adder width must be at least 1")
    carry = netlist.const(0)
    sums = []
    for i, (abit, bbit) in enumerate(zip(a, b)):
        s, carry = build_full_adder(netlist, abit, bbit, carry, prefix=f"{prefix}_b{i}")
        sums.append(s)
    return Bus(sums, name=f"{prefix}_sum"), carry


def build_lookahead_incrementer(
    netlist: Netlist,
    a: Sequence[Net],
    *,
    prefix: str = "inc",
) -> Tuple[Bus, Net]:
    """Build a carry-lookahead incrementer ``a + 1``.

    The carry into bit ``i`` of an incrementer is simply the AND of all lower
    bits, so each carry is computed directly with a balanced AND tree instead
    of rippling through half adders.  A synthesis tool restructures counter
    increment logic this way, which is why real counters have delay that
    grows with ``log(width)`` rather than linearly -- the behaviour the
    paper's CntAG counter delay (Figure 9) exhibits.
    """
    if not a:
        raise NetlistError("incrementer width must be at least 1")
    sums = []
    # Never connected, but part of every recorded netlist and golden HDL file.
    carry: Net = netlist.const(1)
    for i, abit in enumerate(a):
        if i == 0:
            carry = netlist.const(1)
        else:
            carry = build_and_tree(netlist, list(a[:i]), prefix=f"{prefix}_c{i}")
        s = netlist.new_net(f"{prefix}_s{i}_")
        netlist.add_cell("XOR2", A=abit, B=carry, Y=s)
        sums.append(s)
    carry_out = build_and_tree(netlist, list(a), prefix=f"{prefix}_cout")
    return Bus(sums, name=f"{prefix}_sum"), carry_out
