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
from repro.hdl.primitives import SEQUENTIAL

__all__ = ["MAX_FANOUT", "insert_buffer_trees"]

#: The flow's buffering threshold: no driver keeps more than this many loads.
#: Every job key records it (``EvalJob.to_spec``), so changing it moves keys.
MAX_FANOUT = 8


def insert_buffer_trees(netlist: Netlist, max_fanout: int = MAX_FANOUT) -> int:
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
        if len(net.loads) > max_fanout:
            inserted += _buffer_net(netlist, net, max_fanout)
    return inserted


def _buffer_net(netlist: Netlist, net: Net, max_fanout: int) -> int:
    """Buffer one net, level by level; returns the number of buffers inserted.

    Each level splits the net's data loads into ``ceil(loads / max_fanout)``
    strided groups and drives every group of two or more through a new
    buffer.  A group then holds at most ``max_fanout`` loads, so only the
    original net -- which now drives one pin per group -- can need another
    level, for very wide nets such as an enable feeding hundreds of
    flip-flops.
    """
    inserted = 0
    while len(net.loads) > max_fanout:
        # Clock pins only add to the total, so the data loads may fit.
        data_loads: List[Tuple[Cell, str]] = []
        keep: List[Tuple[Cell, str]] = []
        for load in net.loads:
            if load[1] == "CLK" and load[0].cell_type in SEQUENTIAL:
                keep.append(load)
            else:
                data_loads.append(load)
        if len(data_loads) <= max_fanout:
            break
        group_count = (len(data_loads) + max_fanout - 1) // max_fanout
        moves: List[Tuple[Net, List[Tuple[Cell, str]]]] = []
        for g in range(group_count):
            group = data_loads[g::group_count]
            if len(group) == 1:
                # No point in buffering a single load; keep it on the net.
                keep.append(group[0])
                continue
            buffered = netlist.new_net(f"{net.name}_buf")
            buf_cell = netlist.add_cell("BUF", A=net, Y=buffered)
            keep.append((buf_cell, "A"))
            moves.append((buffered, group))
        # The net keeps its clock loads first, then one load per group (the
        # single load or the buffer input): that order fixes the float
        # summation order in cell_library.net_load, hence every delay.
        netlist.distribute_loads(net, keep, moves)
        inserted += len(moves)
    return inserted
