"""Cycle-accurate two-phase simulator for primitive-cell netlists.

The simulator evaluates the combinational cells of a :class:`~repro.hdl.netlist.Netlist`
in topological order, then updates the flip-flops simultaneously on a
simulated rising clock edge.  It is used throughout the reproduction to check
that elaborated address generators (SRAG, CntAG, FSM-based, SFM pointers)
actually produce the address or select-line sequence the paper expects before
their area and delay are measured.

It is the oracle for :class:`~repro.hdl.compiled.CompiledSimulator` and
shares none of its evaluation code: every cell is evaluated through its
:attr:`~repro.hdl.primitives.CellSpec.eval_fn` model on a pin-name dict, and
every settle evaluates the whole topological order, where the compiled
engine's settle is event-driven.  An edge evaluates only the flip-flops whose
input nets or own state changed since their last evaluation, where the
compiled engine evaluates every flop: a skipped flop sees the inputs and
state of an evaluation that left its state unchanged, so by induction on the
edges its next state is its current state.  Each engine thus checks the part
that the other one shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hdl.netlist import Net, Netlist
from repro.obs import metrics

__all__ = ["AddressEncoding", "Simulator", "SimulationError", "sample_addresses"]


class SimulationError(Exception):
    """Raised for simulation-time errors (unknown ports, undriven nets)."""


def _bind(nets: Dict[str, Net]) -> Tuple[Tuple[str, str], ...]:
    """Freeze a pin-to-net mapping into ``(pin, net_name)`` pairs."""
    return tuple((pin, net.name) for pin, net in nets.items())


class Simulator:
    """Two-phase (settle combinational logic, then clock) netlist simulator.

    Parameters
    ----------
    netlist:
        The netlist to simulate.  It is validated and levelised once at
        construction time.

    Notes
    -----
    * The clock is implicit: every call to :meth:`step` represents one rising
      clock edge.  ``CLK`` pins on flip-flops are ignored functionally.
    * All nets start at 0 and all flip-flops start in state 0; use
      :meth:`poke` to drive inputs (for example a ``reset`` input) before the
      first clock edge.
    * Pin-to-net bindings are resolved once at construction.  Every cell is
      evaluated through its truth-table model
      :attr:`~repro.hdl.primitives.CellSpec.eval_fn` on a pin-name dict,
      and every settle re-evaluates the whole topological order.
    * An edge evaluates only the flip-flops marked since their last
      evaluation (all of them after construction): :meth:`poke`,
      :meth:`poke_bus` and :meth:`settle` mark the flops reading each net
      whose value they change, and a flop whose state changed marks itself
      and writes its ``Q`` net in the next settle.
    * A settle is a pure function of the input values and the flop state,
      so :meth:`step` skips the pre-edge settle when nothing was poked
      since the last one: one settle per clock edge in steady state.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        flops = netlist.sequential_cells()
        # Flop indices reading each net.
        self._watchers: Dict[str, Tuple[int, ...]] = {}
        for i, cell in enumerate(flops):
            for net in {net.name for net in cell.input_nets().values()}:
                self._watchers[net] = self._watchers.get(net, ()) + (i,)
        # (eval_fn, ((pin, net), ...), ((out_pin, net, flops reading it), ...))
        # in topological order; only connected pins are bound.
        self._order = [
            (
                cell.spec.eval_fn,
                _bind(cell.input_nets()),
                tuple(
                    (pin, net.name, self._watchers.get(net.name, ()))
                    for pin, net in cell.output_nets().items()
                ),
            )
            for cell in netlist.topological_combinational_order()
        ]
        # (eval_fn, ((pin, net), ...)) per flop; its state and Q net share its index.
        self._flops = [(cell.spec.eval_fn, _bind(cell.input_nets())) for cell in flops]
        self._q_nets = [cell.pins["Q"].name if "Q" in cell.pins else None for cell in flops]
        self._flop_index = {cell.name: i for i, cell in enumerate(flops)}
        self._values: Dict[str, int] = {name: 0 for name in netlist.nets}
        self._state: List[int] = [0] * len(flops)
        self._pending: Set[int] = set(range(len(flops)))
        self._moved: List[int] = []  # flops whose Q net the next settle writes
        self._dirty = True
        self.cycle = 0
        self.settle()

    # ------------------------------------------------------------------ I/O
    def _drive(self, net: str, value: int) -> None:
        """Write an input net; mark the flops reading it when its value changes."""
        if self._values[net] != value:
            self._values[net] = value
            self._pending.update(self._watchers.get(net, ()))
        self._dirty = True

    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input port with 0 or 1."""
        inputs = self.netlist.inputs
        if port not in inputs:
            raise SimulationError(f"unknown input port {port!r}")
        self._drive(inputs[port].name, 1 if value else 0)

    def poke_bus(self, bus: Sequence[Net], value: int) -> None:
        """Drive a bus of input nets with the binary encoding of ``value``."""
        for i, net in enumerate(bus):
            if net.name not in self._values:
                raise SimulationError(f"net {net.name!r} is not in the netlist")
            if not net.is_input:
                raise SimulationError(f"net {net.name!r} is not an input")
            self._drive(net.name, (value >> i) & 1)

    def peek(self, port_or_net) -> int:
        """Read the current value of a top-level port name or a :class:`Net`."""
        if isinstance(port_or_net, Net):
            if port_or_net.name not in self._values:
                raise SimulationError(
                    f"net {port_or_net.name!r} is not in the netlist"
                )
            return self._values[port_or_net.name]
        name = port_or_net
        if name in self.netlist.outputs:
            return self._values[self.netlist.outputs[name].name]
        if name in self.netlist.inputs:
            return self._values[self.netlist.inputs[name].name]
        if name in self.netlist.nets:
            return self._values[name]
        raise SimulationError(f"unknown port or net {name!r}")

    def peek_bus(self, bus: Sequence[Net]) -> int:
        """Read a bus as an unsigned integer (bit 0 is the LSB)."""
        values = self._values
        value = 0
        try:
            for i, net in enumerate(bus):
                value |= values[net.name] << i
        except KeyError as exc:
            raise SimulationError(f"net {exc.args[0]!r} is not in the netlist") from None
        return value

    def peek_onehot(self, bus: Sequence[Net]) -> Optional[int]:
        """Return the index of the single asserted bit of ``bus``.

        Returns ``None`` when no bit is asserted and raises
        :class:`SimulationError` when more than one bit is asserted — the
        condition the paper warns would corrupt an ADDM array.
        """
        value = self.peek_bus(bus)
        if value & (value - 1):
            asserted = [i for i in range(len(bus)) if (value >> i) & 1]
            raise SimulationError(f"multiple select lines asserted: {asserted}")
        return value.bit_length() - 1 if value else None

    def flop_state(self, cell_name: str) -> int:
        """Return the current state of the named flip-flop cell."""
        if cell_name not in self._flop_index:
            raise SimulationError(f"unknown flip-flop {cell_name!r}")
        return self._state[self._flop_index[cell_name]]

    # ------------------------------------------------------------- evaluation
    def settle(self) -> None:
        """Propagate flip-flop outputs and inputs through combinational logic."""
        # One aggregate incr per settle (not per cell): the reference
        # simulator re-evaluates its whole topological order each settle.
        metrics.incr("sim.reference.settle_events", len(self._order))
        values = self._values
        pending = self._pending
        for i in self._moved:
            q_net = self._q_nets[i]
            if q_net is not None:
                values[q_net] = self._state[i]
                pending.update(self._watchers.get(q_net, ()))
        self._moved = []
        for eval_fn, inputs, outputs in self._order:
            result = eval_fn({pin: values[net] for pin, net in inputs})
            for pin, net, watchers in outputs:
                if watchers and values[net] != result[pin]:
                    pending.update(watchers)
                values[net] = result[pin]
        self._dirty = False

    def step(self, cycles: int = 1, **ports: int) -> None:
        """Advance the simulation by ``cycles`` rising clock edges.

        Keyword arguments drive input ports for the duration of the call,
        e.g. ``sim.step(next=1, reset=0)``; their previous values are
        restored before returning.
        """
        metrics.incr("sim.reference.cycles", cycles)
        previous: Dict[str, int] = {}
        for port, value in ports.items():
            previous[port] = self.peek(port)
            self.poke(port, value)
        values = self._values
        state = self._state
        flops = self._flops
        evaluated = 0
        for _ in range(cycles):
            if self._dirty:
                self.settle()
            pending, self._pending = self._pending, set()
            evaluated += len(pending)
            # Every next state is computed before any is written: the flops
            # update simultaneously.
            moved = []
            for i in pending:
                eval_fn, inputs = flops[i]
                pin_values = {pin: values[net] for pin, net in inputs}
                pin_values["Q"] = state[i]
                if eval_fn(pin_values)["Q"] != state[i]:
                    moved.append(i)
            for i in moved:
                state[i] ^= 1
            self._pending.update(moved)
            self._moved += moved
            self.cycle += 1
            self._dirty = True
        # One aggregate incr per step, like settle_events per settle.
        metrics.incr("sim.reference.flop_events", evaluated)
        self.settle()
        for port, value in previous.items():
            self.poke(port, value)

    def reset(self) -> None:
        """Pulse the synchronous ``reset`` input for one clock edge."""
        self.poke("reset", 1)
        self.step()
        self.poke("reset", 0)
        self.settle()

    # ------------------------------------------------------------ conveniences
    def run_sequence(
        self,
        output_bus: Sequence[Net],
        cycles: int,
        *,
        next_port: Optional[str] = "next",
        onehot: bool = False,
    ) -> List[int]:
        """Clock the design ``cycles`` times and sample ``output_bus`` each cycle.

        The bus is sampled *before* each clock edge (i.e. the value produced
        by the current state), which matches how the paper's address
        generators present address ``a_n`` while ``next`` requests ``a_{n+1}``.
        """
        if next_port is not None:
            self.poke(next_port, 1)
        # step() leaves the design settled, so one settle up front suffices.
        self.settle()
        samples: List[int] = []
        for _ in range(cycles):
            if onehot:
                index = self.peek_onehot(output_bus)
                samples.append(-1 if index is None else index)
            else:
                samples.append(self.peek_bus(output_bus))
            self.step()
        return samples


# ------------------------------------------------------------ address sampling
@dataclass(frozen=True)
class AddressEncoding:
    """How an address generator's output ports spell its linear address.

    ``buses`` names one or two output buses as ``(prefix, width)``; the bits
    of a bus are the ports ``<prefix>_0 .. <prefix>_<width - 1>``.  One bus
    carries the address itself; two are a ``(row, column)`` pair read as
    ``row * cols + col``.  With ``onehot`` each bus is a set of select lines
    whose value is the index of its asserted line; otherwise each bus is an
    unsigned binary number.
    """

    buses: Tuple[Tuple[str, int], ...]
    onehot: bool
    cols: int = 1

    @classmethod
    def two_hot(cls, rows: int, cols: int) -> "AddressEncoding":
        """Row-select lines ``rs_*`` and column-select lines ``cs_*``."""
        return cls((("rs", rows), ("cs", cols)), onehot=True, cols=cols)


def sample_addresses(
    netlist: Netlist, encoding: AddressEncoding, cycles: int
) -> List[int]:
    """Linear addresses a generator netlist emits over ``cycles`` cycles.

    The netlist is reset, ``next`` is held high, and the address is sampled
    before each clock edge, so sample ``k`` is the ``k``-th address of the
    sequence.  Raises ``RuntimeError`` when a select-line bus has no asserted
    line, and :class:`SimulationError` when it has more than one.
    """
    outputs = netlist.outputs
    buses = [
        (prefix, [outputs[f"{prefix}_{i}"] for i in range(width)])
        for prefix, width in encoding.buses
    ]
    sim = Simulator(netlist)
    sim.reset()
    sim.poke("next", 1)
    sim.settle()
    read = sim.peek_onehot if encoding.onehot else sim.peek_bus
    addresses: List[int] = []
    for cycle in range(cycles):
        address = 0
        for prefix, bus in buses:
            value = read(bus)
            if value is None:
                raise RuntimeError(f"no {prefix}_* line asserted at cycle {cycle}")
            address = address * encoding.cols + value
        addresses.append(address)
        sim.step()
    return addresses
