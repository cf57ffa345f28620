"""Per-net toggle counts on the reference simulator: the power-study oracle.

:func:`repro.synth.power.estimate_power` counts toggles inside the compiled
simulator's event-driven loop.  This is the straightforward measurement it
replaced: settle every cycle on the reference truth-table
:class:`~repro.hdl.simulator.Simulator`, then compare every net with its
previous value.  The tests and ``benchmarks/test_power_vs_compiled.py``
require the two to agree net for net.
"""

from __future__ import annotations

from typing import Dict

from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.synth.power import _reset_and_advance

__all__ = ["_reference_toggles"]


def _reference_toggles(netlist: Netlist, cycles: int) -> Dict[str, int]:
    """Per-net toggle counts over ``cycles`` cycles, zero counts omitted.

    Same protocol as :func:`~repro.synth.power.estimate_power`: reset
    through ``reset`` and hold ``next`` high, where those ports exist.
    """
    simulator = _reset_and_advance(Simulator(netlist))

    previous = {name: simulator.peek(net) for name, net in netlist.nets.items()}
    toggles: Dict[str, int] = {name: 0 for name in netlist.nets}
    for _ in range(cycles):
        simulator.step()
        for name, net in netlist.nets.items():
            value = simulator.peek(net)
            if value != previous[name]:
                toggles[name] += 1
                previous[name] = value
    return {name: count for name, count in toggles.items() if count}
