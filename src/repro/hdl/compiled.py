"""Compiled netlist simulator: the reproduction's simulation fast path.

The reference :class:`~repro.hdl.simulator.Simulator` is the oracle: it
re-evaluates every combinational cell at every settle and counts no
toggles.  Campaigns that measure switching activity (256 cycles per design
point) run :class:`CompiledSimulator`, which levelises the netlist **once**
at construction into a flat evaluation program:

* every net gets an integer slot in one flat value list,
* every combinational cell becomes a pre-specialised closure (see
  :func:`repro.hdl.primitives.compile_comb`) reading input slots and
  returning its output bit, ordered topologically,
* every flip-flop becomes a next-state closure plus a state slot.

Settling is event-driven: a cell is only re-evaluated when one of its input
nets actually changed, so quiescent logic cones (most of an SRAG, where a
single token moves per access) are skipped entirely.  Every flop is evaluated
at every edge, which is the part the reference skips for flops whose inputs
and state did not move.  :meth:`run` steps many cycles in a batch with
per-net toggle counting fused into the loop; a toggle is a change between
settled cycle-boundary snapshots.  The compiled simulator is bit-for-bit
compatible with the reference ``Simulator``: ``tests/test_hdl_compiled.py``
checks values and toggle counts (the latter against the test oracle, a
snapshot comparison on the reference simulator) on every built-in
workload.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Sequence

from repro.hdl.netlist import Net, Netlist
from repro.hdl.primitives import compile_comb, compile_flop
from repro.hdl.simulator import SimulationError, Simulator
from repro.obs import metrics

__all__ = ["CompiledSimulator"]


class CompiledSimulator:
    """Levelised, event-driven drop-in for :class:`~repro.hdl.simulator.Simulator`.

    Exposes the same interface (``poke``/``peek``/``step``/``reset``/
    ``run_sequence``/...) plus :meth:`run` for batch stepping with fused
    toggle counting.  State is observably identical to the reference
    simulator after every call.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.cycle = 0

        self._slot_of: Dict[str, int] = {
            name: i for i, name in enumerate(netlist.nets)
        }
        self._net_names: List[str] = list(netlist.nets)
        n_nets = len(self._net_names)
        self._values: List[int] = [0] * n_nets
        self._toggles: List[int] = [0] * n_nets

        # Compile combinational cells in topological order; op index order is
        # therefore a valid evaluation schedule, which lets the event-driven
        # settle process pending ops through a min-heap of op indices.
        order = netlist.topological_combinational_order()
        self._op_fn = []
        self._op_out: List[int] = []
        self._net_ops: List[List[int]] = [[] for _ in range(n_nets)]
        for idx, cell in enumerate(order):
            spec = cell.spec
            in_slots = [self._slot_of[cell.pins[p].name] for p in spec.inputs]
            self._op_fn.append(compile_comb(cell.cell_type, in_slots))
            self._op_out.append(self._slot_of[cell.pins[spec.outputs[0]].name])
            for slot in set(in_slots):
                self._net_ops[slot].append(idx)
        self._op_fanout: List[List[int]] = [
            self._net_ops[out] for out in self._op_out
        ]
        self._pending: List[bool] = [False] * len(self._op_fn)
        self._heap: List[int] = []

        flops = netlist.sequential_cells()
        self._flop_fns = []
        self._flop_q_slot: List[int] = []
        self._flop_index: Dict[str, int] = {}
        self._state: List[int] = [0] * len(flops)
        for i, cell in enumerate(flops):
            slot_map = {
                pin: self._slot_of[net.name]
                for pin, net in cell.input_nets().items()
            }
            self._flop_fns.append(compile_flop(cell.cell_type, slot_map))
            q_net = cell.pins.get("Q")
            self._flop_q_slot.append(
                self._slot_of[q_net.name] if q_net is not None else -1
            )
            self._flop_index[cell.name] = i

        # Toggle bookkeeping for `run`: while counting, the first change of a
        # net within a cycle records its boundary value; at each cycle
        # boundary the recorded nets are compared against their current value
        # (so a change that reverts within one cycle counts zero toggles,
        # exactly like the reference snapshot comparison).
        self._counting = False
        self._interval_base: Dict[int, int] = {}

        # Settle-event accounting: `_drain` tallies processed ops into a
        # plain attribute (the event loop stays registry-free) and the public
        # entry points flush the delta to the metrics registry.
        self._settle_events = 0
        self._flushed_events = 0

        # Initial full settle, mirroring the reference constructor.
        for idx in range(len(self._op_fn)):
            self._pending[idx] = True
            self._heap.append(idx)
        self._drain()

    # ------------------------------------------------------------------ I/O
    def poke(self, port: str, value: int) -> None:
        """Drive a top-level input port with 0 or 1."""
        inputs = self.netlist.inputs
        if port not in inputs:
            raise SimulationError(f"unknown input port {port!r}")
        self._write_net(self._slot_of[inputs[port].name], 1 if value else 0)

    def poke_bus(self, bus: Sequence[Net], value: int) -> None:
        """Drive a bus of input nets with the binary encoding of ``value``."""
        for i, net in enumerate(bus):
            if net.name not in self._slot_of:
                raise SimulationError(f"net {net.name!r} is not in the netlist")
            if not net.is_input:
                raise SimulationError(f"net {net.name!r} is not an input")
            self._write_net(self._slot_of[net.name], (value >> i) & 1)

    def peek(self, port_or_net) -> int:
        """Read the current value of a top-level port name or a :class:`Net`."""
        if isinstance(port_or_net, Net):
            slot = self._slot_of.get(port_or_net.name)
            if slot is None:
                raise SimulationError(
                    f"net {port_or_net.name!r} is not in the netlist"
                )
            return self._values[slot]
        name = port_or_net
        if name in self.netlist.outputs:
            return self._values[self._slot_of[self.netlist.outputs[name].name]]
        if name in self.netlist.inputs:
            return self._values[self._slot_of[self.netlist.inputs[name].name]]
        if name in self._slot_of:
            return self._values[self._slot_of[name]]
        raise SimulationError(f"unknown port or net {name!r}")

    def peek_bus(self, bus: Sequence[Net]) -> int:
        """Read a bus as an unsigned integer (bit 0 is the LSB)."""
        value = 0
        for i, net in enumerate(bus):
            slot = self._slot_of.get(net.name)
            if slot is None:
                raise SimulationError(f"net {net.name!r} is not in the netlist")
            value |= self._values[slot] << i
        return value

    def flop_state(self, cell_name: str) -> int:
        """Return the current state of the named flip-flop cell."""
        if cell_name not in self._flop_index:
            raise SimulationError(f"unknown flip-flop {cell_name!r}")
        return self._state[self._flop_index[cell_name]]

    # ------------------------------------------------------------- evaluation
    def settle(self) -> None:
        """Propagate any pending net changes through combinational logic."""
        self._drain()
        self._flush_events()

    def step(self, cycles: int = 1, **ports: int) -> None:
        """Advance the simulation by ``cycles`` rising clock edges.

        Keyword arguments drive input ports for the duration of the call
        only; their previous values are restored before returning.
        """
        previous = {}
        inputs = self.netlist.inputs
        for port, value in ports.items():
            if port not in inputs:
                raise SimulationError(f"unknown input port {port!r}")
            slot = self._slot_of[inputs[port].name]
            previous[slot] = self._values[slot]
            self._write_net(slot, 1 if value else 0)
        for _ in range(cycles):
            self._drain()
            self._clock()
        self._drain()
        metrics.incr("sim.compiled.cycles", cycles)
        self._flush_events()
        for slot, value in previous.items():
            self._write_net(slot, value)

    def run(self, cycles: int) -> None:
        """Batch-step ``cycles`` clock edges, counting net toggles as it goes.

        Equivalent to ``step(cycles)`` (without keyword ports) but with
        per-net transition counting fused into the loop; read the counts
        with :meth:`toggle_counts` and clear them with :meth:`reset_toggles`.
        A toggle is a net whose settled value at the end of a cycle differs
        from its value at the end of the previous cycle -- the same
        snapshot-per-cycle semantics as the tests' reference toggle count.
        """
        if cycles < 0:
            raise SimulationError(f"cycles must be non-negative, got {cycles}")
        self._counting = True
        self._interval_base.clear()
        try:
            for i in range(cycles):
                self._drain()
                if i:
                    self._flush_interval()
                self._clock()
            self._drain()
            self._flush_interval()
        finally:
            self._counting = False
        metrics.incr("sim.compiled.cycles", cycles)
        self._flush_events()

    # -------------------------------------------------------------- toggles
    def toggle_counts(self) -> Dict[str, int]:
        """Net-name to transition count accumulated by :meth:`run`."""
        return {
            self._net_names[slot]: count
            for slot, count in enumerate(self._toggles)
            if count
        }

    def reset_toggles(self) -> None:
        """Zero the accumulated toggle counters."""
        self._toggles = [0] * len(self._toggles)
        self._interval_base.clear()

    # ------------------------------------------------------------ conveniences
    # These use the public API only, so the reference simulator's
    # implementations serve unchanged.
    peek_onehot = Simulator.peek_onehot
    reset = Simulator.reset
    run_sequence = Simulator.run_sequence

    # -------------------------------------------------------------- internals
    def _write_net(self, slot: int, value: int) -> None:
        values = self._values
        if values[slot] == value:
            return
        if self._counting and slot not in self._interval_base:
            self._interval_base[slot] = values[slot]
        values[slot] = value
        pending = self._pending
        heap = self._heap
        for dep in self._net_ops[slot]:
            if not pending[dep]:
                pending[dep] = True
                heappush(heap, dep)

    def _drain(self) -> None:
        heap = self._heap
        if not heap:
            return
        pending = self._pending
        values = self._values
        op_fn = self._op_fn
        op_out = self._op_out
        op_fanout = self._op_fanout
        counting = self._counting
        base = self._interval_base
        processed = 0
        while heap:
            idx = heappop(heap)
            pending[idx] = False
            processed += 1
            new = op_fn[idx](values)
            out = op_out[idx]
            if new != values[out]:
                if counting and out not in base:
                    base[out] = values[out]
                values[out] = new
                for dep in op_fanout[idx]:
                    if not pending[dep]:
                        pending[dep] = True
                        heappush(heap, dep)
        self._settle_events += processed

    def _flush_events(self) -> None:
        delta = self._settle_events - self._flushed_events
        if delta:
            metrics.incr("sim.compiled.settle_events", delta)
            self._flushed_events = self._settle_events

    def _clock(self) -> None:
        values = self._values
        state = self._state
        # Snapshot-style simultaneous update: all next states are computed
        # before any state or Q net is written.
        nxt = [fn(values, state[i]) for i, fn in enumerate(self._flop_fns)]
        q_slots = self._flop_q_slot
        for i, value in enumerate(nxt):
            if value != state[i]:
                state[i] = value
                q = q_slots[i]
                if q >= 0:
                    self._write_net(q, value)
        self.cycle += 1

    def _flush_interval(self) -> None:
        base = self._interval_base
        if not base:
            return
        values = self._values
        toggles = self._toggles
        for slot, old in base.items():
            if values[slot] != old:
                toggles[slot] += 1
        base.clear()
