"""Wide-gate and multiplexor-tree builders.

Standard-cell libraries only offer gates up to four inputs, so wide AND/OR
functions (for example a decoder output covering an 8-bit address, or the
terminal-count detect of a counter) are built as balanced trees of 2/3/4
input gates.  These helpers construct such trees and return the output net.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hdl.netlist import Net, Netlist, NetlistError

__all__ = ["build_and_tree", "build_or_tree", "build_mux_tree"]

_MAX_FANIN = 4


def _build_tree(netlist: Netlist, inputs: Sequence[Net], gate_prefix: str, prefix: str) -> Net:
    """Reduce ``inputs`` with a balanced tree of ``gate_prefix`` gates."""
    if not inputs:
        raise NetlistError(f"{gate_prefix} tree needs at least one input")
    level: List[Net] = list(inputs)
    stage = 0
    while len(level) > 1:
        next_level: List[Net] = []
        for start in range(0, len(level), _MAX_FANIN):
            group = level[start:start + _MAX_FANIN]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            out = netlist.new_net(f"{prefix}_s{stage}_")
            # ``Y`` first, then the inputs: ``Cell.pins`` order is the order
            # the emitters print the port map in.
            netlist.add_cell(
                f"{gate_prefix}{len(group)}", Y=out, **dict(zip("ABCD", group))
            )
            next_level.append(out)
        level = next_level
        stage += 1
    return level[0]


def build_and_tree(netlist: Netlist, inputs: Sequence[Net], prefix: str = "and_tree") -> Net:
    """AND together an arbitrary number of nets using a gate tree."""
    return _build_tree(netlist, inputs, "AND", prefix)


def build_or_tree(netlist: Netlist, inputs: Sequence[Net], prefix: str = "or_tree") -> Net:
    """OR together an arbitrary number of nets using a gate tree."""
    return _build_tree(netlist, inputs, "OR", prefix)


def build_mux_tree(
    netlist: Netlist,
    data: Sequence[Net],
    select: Sequence[Net],
    prefix: str = "mux_tree",
) -> Net:
    """Build a 2^k : 1 multiplexor tree.

    Parameters
    ----------
    data:
        Data inputs; ``data[i]`` is selected when the select bus equals ``i``.
        The length must not exceed ``2 ** len(select)``; missing leaves are
        tied to 0.
    select:
        Select bus, LSB first.
    """
    width = len(select)
    if len(data) > (1 << width):
        raise NetlistError(
            f"mux tree with {len(data)} inputs needs more than {width} select bits"
        )
    level: List[Net] = list(data)
    while len(level) < (1 << width):
        level.append(netlist.const(0))
    for stage, sel in enumerate(select):
        next_level: List[Net] = []
        for pair in range(0, len(level), 2):
            out = netlist.new_net(f"{prefix}_s{stage}_")
            netlist.add_cell("MUX2", A=level[pair], B=level[pair + 1], S=sel, Y=out)
            next_level.append(out)
        level = next_level
    return level[0]
