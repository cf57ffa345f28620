"""Static timing analysis.

Computes the critical path of a netlist under the logical-effort delay model
of :mod:`repro.synth.cell_library`.  The reported quantity matches what the
paper reports for its address generators: the worst register-to-register or
register-to-output path *excluding* the memory cell array (the paper
explicitly excludes array access time from all delay figures).

Path model
----------
* Primary inputs arrive at time 0.
* A flip-flop output becomes valid ``clk_to_q`` plus a load-dependent term
  after the clock edge.
* A combinational cell's output becomes valid when its latest input is valid
  plus the cell's logical-effort delay into its actual load (the sum of the
  input capacitances of its fanout pins plus a per-fanout wire capacitance).
* Endpoints are flip-flop data/enable/reset pins (which add the setup time)
  and primary outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdl.netlist import Cell, Netlist
from repro.hdl.primitives import INPUT_PINS, OUTPUT_PINS, SEQUENTIAL
from repro.synth.cell_library import CellLibrary, STD018, net_load

__all__ = ["PathSegment", "TimingReport", "timing_report"]


@dataclass(frozen=True)
class PathSegment:
    """One cell traversal on a timing path."""

    cell_name: str
    cell_type: str
    output_net: str
    delay: float
    arrival: float


@dataclass
class TimingReport:
    """Result of static timing analysis on one netlist.

    Attributes
    ----------
    critical_path_delay:
        Worst endpoint arrival time in nanoseconds (including flip-flop setup
        at register endpoints).
    critical_path:
        Cell-by-cell breakdown of the worst path, source first.
    endpoint:
        Human-readable description of the worst endpoint.
    arrival_times:
        Final arrival time of every net, by net name.
    """

    critical_path_delay: float
    critical_path: List[PathSegment] = field(default_factory=list)
    endpoint: str = ""
    arrival_times: Dict[str, float] = field(default_factory=dict)

    @property
    def levels(self) -> int:
        """Number of cells on the critical path."""
        return len(self.critical_path)

    def describe(self) -> str:
        """Multi-line human-readable critical-path report."""
        lines = [
            f"critical path delay: {self.critical_path_delay:.3f} ns "
            f"({self.levels} levels) -> {self.endpoint}"
        ]
        for seg in self.critical_path:
            lines.append(
                f"  {seg.arrival:7.3f} ns  +{seg.delay:6.3f}  "
                f"{seg.cell_type:<12} {seg.cell_name} -> {seg.output_net}"
            )
        return "\n".join(lines)


def timing_report(netlist: Netlist, library: CellLibrary = STD018) -> TimingReport:
    """Run static timing analysis and return the :class:`TimingReport`."""
    netlist.validate()
    order = netlist.topological_combinational_order()
    flops = netlist.sequential_cells()
    inputs, outputs = INPUT_PINS, OUTPUT_PINS
    gate_delay = library.gate_delay

    arrival: Dict[str, float] = {}
    # net name -> (producing cell, previous net) for path reconstruction
    predecessor: Dict[str, Tuple[Optional[Cell], Optional[str], float]] = {}

    for name, net in netlist.inputs.items():
        arrival[net.name] = 0.0
        predecessor[net.name] = (None, None, 0.0)

    for flop in flops:
        q_net = flop.pins.get("Q")
        if q_net is None:
            continue
        delay = gate_delay(flop.cell_type, net_load(q_net, library))
        arrival[q_net.name] = delay
        predecessor[q_net.name] = (flop, None, delay)

    for cell in order:
        # Track the max inline; ties break on the net name, exactly like a
        # tuple max() over (arrival, name) pairs.
        pins = cell.pins
        cell_type = cell.cell_type
        latest, latest_net = 0.0, None
        for pin in inputs[cell_type]:
            net = pins.get(pin)
            if net is None:
                continue
            name = net.name
            t = arrival.get(name, 0.0)
            if latest_net is None or t > latest or (t == latest and name > latest_net):
                latest, latest_net = t, name
        for pin in outputs[cell_type]:
            net = pins.get(pin)
            if net is None:
                continue
            delay = gate_delay(cell_type, net_load(net, library))
            arrival[net.name] = latest + delay
            predecessor[net.name] = (cell, latest_net, delay)

    # Evaluate endpoints.
    worst_delay = 0.0
    worst_net: Optional[str] = None
    worst_endpoint = "(no endpoints)"

    for flop in flops:
        setup = library.setup(flop.cell_type)
        pins = flop.pins
        for pin in inputs[flop.cell_type]:
            net = pins.get(pin)
            if pin == "CLK" or net is None:
                continue
            t = arrival.get(net.name, 0.0) + setup
            if t > worst_delay:
                worst_delay = t
                worst_net = net.name
                worst_endpoint = f"{flop.name}.{pin} (register setup)"

    for port_name, net in netlist.outputs.items():
        t = arrival.get(net.name, 0.0)
        if t > worst_delay:
            worst_delay = t
            worst_net = net.name
            worst_endpoint = f"output port {port_name}"

    path: List[PathSegment] = []
    net_name = worst_net
    while net_name is not None:
        cell, previous_net, delay = predecessor.get(net_name, (None, None, 0.0))
        if cell is None:
            break
        path.append(
            PathSegment(
                cell_name=cell.name,
                cell_type=cell.cell_type,
                output_net=net_name,
                delay=delay,
                arrival=arrival.get(net_name, 0.0),
            )
        )
        if cell.cell_type in SEQUENTIAL:
            break
        net_name = previous_net
        if net_name is None:
            break
        # Follow the worst input of the previous cell: predecessor already
        # points at the latest-arriving input net, so just continue.
    path.reverse()

    return TimingReport(
        critical_path_delay=worst_delay,
        critical_path=path,
        endpoint=worst_endpoint,
        arrival_times=arrival,
    )
