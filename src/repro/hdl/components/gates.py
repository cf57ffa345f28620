"""Wide-gate builders.

Standard-cell libraries only offer gates up to four inputs, so wide AND/OR
functions (for example a decoder output covering an 8-bit address, or the
terminal-count detect of a counter) are built as balanced trees of 2/3/4
input gates.  These helpers construct such trees and return the output net.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hdl.netlist import Net, Netlist, NetlistError

__all__ = ["build_and_tree", "build_or_tree"]

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

