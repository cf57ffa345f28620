"""High-fanout net buffering.

A synthesis tool never lets one gate drive hundreds of loads directly: it
inserts a buffer tree, trading a little area for a delay that grows with the
*logarithm* of the fanout instead of linearly.  The nets that matter in this
reproduction are exactly the ones the paper's architectures stress --

* the SRAG ``enable``/``pass`` control signals fan out to every shift-register
  flip-flop (hundreds of loads for large arrays),
* the CntAG address-counter bits fan out to the row/column decoders, and the
  pre-decode lines inside those decoders fan out to all the output gates.

Buffering is applied by the synthesis flow (:mod:`repro.synth.flow`) before
timing and area analysis, so every reported figure already includes the
buffer-tree cost, just as Design Compiler's numbers would.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hdl.netlist import Cell, Net, Netlist

__all__ = ["insert_buffer_trees"]


def insert_buffer_trees(netlist: Netlist, max_fanout: int = 8) -> int:
    """Insert balanced buffer trees on every net whose fanout exceeds ``max_fanout``.

    Loads are re-distributed so that no driver (original or inserted buffer)
    drives more than ``max_fanout`` pins.  Flip-flop clock pins are not
    counted or rebuffered (an ideal clock tree is assumed, as is conventional
    for pre-layout synthesis numbers).

    Returns the number of buffers inserted.
    """
    if max_fanout < 2:
        raise ValueError(f"max_fanout must be >= 2, got {max_fanout}")

    inserted = 0
    # Snapshot the net list up front: buffering adds new nets that never need
    # re-buffering themselves beyond what the loop below already guarantees.
    for net in list(netlist.nets.values()):
        inserted += _buffer_net(netlist, net, max_fanout)
    return inserted


def _is_clock_load(load: Tuple[Cell, str]) -> bool:
    cell, pin = load
    return cell.spec.sequential and pin == "CLK"


def _buffer_net(netlist: Netlist, net: Net, max_fanout: int) -> int:
    """Recursively buffer one net; returns the number of buffers inserted."""
    if len(net.loads) <= max_fanout:
        # Clock pins only add to the total, so the data loads fit too.
        return 0
    data_loads = [load for load in net.loads if not _is_clock_load(load)]
    clock_loads = [load for load in net.loads if _is_clock_load(load)]
    if len(data_loads) <= max_fanout:
        return 0

    inserted = 0
    # Split the loads into groups, each driven by a new buffer.
    groups: List[List[Tuple[Cell, str]]] = []
    group_count = (len(data_loads) + max_fanout - 1) // max_fanout
    for g in range(group_count):
        groups.append(data_loads[g::group_count])

    new_loads: List[Tuple[Cell, str]] = list(clock_loads)
    for group in groups:
        if len(group) == 1:
            # No point in buffering a single load; keep it on the original net.
            new_loads.append(group[0])
            continue
        buffered = netlist.new_net(f"{net.name}_buf")
        buf_cell = netlist.add_cell("BUF", A=net, Y=buffered)
        inserted += 1
        # add_cell() appended (buf_cell, "A") to net.loads; remember it.
        new_loads.append((buf_cell, "A"))
        # Re-point the grouped loads at the buffered net through the
        # netlist's structural-mutation primitive, so the cached topological
        # order is invalidated and rewrite listeners see the move.
        netlist.move_loads(net, buffered, group)
        # Recurse in case a single buffer still exceeds the limit.
        inserted += _buffer_net(netlist, buffered, max_fanout)

    # Pure permutation (same load set move_loads left behind): the legacy
    # clock-loads-first, one-entry-per-group order is restored so that load
    # iteration order -- and with it the float summation order inside
    # cell_library.net_load, hence every reported delay -- stays
    # byte-identical to the pre-move_loads implementation.
    net.loads = new_loads
    # The original net now drives one pin per group, which can itself exceed
    # the fanout limit for very wide nets (e.g. an enable driving hundreds of
    # flip-flops); keep buffering until the tree is balanced.
    inserted += _buffer_net(netlist, net, max_fanout)
    return inserted
