"""Flat gate-level netlist representation.

The netlist is the central data structure of the reproduction.  Every
address-generator architecture studied in the paper (the shift-register based
SRAG, the counter-plus-decoder CntAG, the symbolic FSM generator, the
arithmetic generator) is elaborated into a :class:`Netlist` of primitive
cells, and the same netlist object is then

* simulated cycle-by-cycle to check that it produces the intended address
  sequence (:mod:`repro.hdl.simulator`),
* timed and measured for area against the standard-cell library
  (:mod:`repro.synth.timing`, :mod:`repro.synth.area`), and
* emitted as structural VHDL or Verilog (:mod:`repro.hdl.emit`).

The representation is intentionally flat: hierarchy only matters for the
emitters, and generated address generators are naturally flat structures.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.hdl.primitives import (
    INPUT_PINS,
    OUTPUT_PINS,
    PRIMITIVES,
    SEQUENTIAL,
    CellSpec,
)

__all__ = [
    "Net",
    "Bus",
    "Cell",
    "Netlist",
    "NetlistError",
    "sanitise_name",
]

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Every declared pin of each primitive, for add_cell's connection check.
_DECLARED_PINS: Dict[str, FrozenSet[str]] = {
    name: frozenset(spec.inputs + spec.outputs) for name, spec in PRIMITIVES.items()
}


def sanitise_name(name: str) -> str:
    """Make a workload or design name safe for use as a netlist identifier."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"n_{cleaned}"
    return cleaned


class NetlistError(Exception):
    """Raised for structural errors while building or validating a netlist."""


@dataclass(eq=False)
class Net:
    """A single-bit wire.

    A net has at most one driver, which is either a top-level input port or
    the output pin of a cell.  Loads are (cell, pin-name) pairs plus any
    top-level output ports that alias the net.
    """

    name: str
    driver: Optional[Tuple["Cell", str]] = None
    is_input: bool = False
    loads: List[Tuple["Cell", str]] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Net({self.name!r})"

    @property
    def has_driver(self) -> bool:
        """Return ``True`` when the net is driven by a cell or is an input."""
        return self.is_input or self.driver is not None

    @property
    def fanout(self) -> int:
        """Number of cell pins loading this net."""
        return len(self.loads)

    def data_loads(self) -> List[Tuple["Cell", str]]:
        """Loads excluding flip-flop ``CLK`` pins.

        The clock network is distributed separately from the signal wiring
        (and the simulator's clock is implicit), so timing and power models
        charge neither pin nor wire capacitance for ``CLK`` connections.
        """
        return [
            load
            for load in self.loads
            if load[1] != "CLK" or load[0].cell_type not in SEQUENTIAL
        ]


class Bus(Sequence[Net]):
    """An ordered collection of nets treated as a little-endian vector.

    ``bus[0]`` is the least-significant bit.  Buses are a pure convenience on
    top of :class:`Net`; the netlist itself only knows about single-bit nets.
    """

    def __init__(self, nets: Iterable[Net], name: str = ""):
        self._nets: List[Net] = list(nets)
        self.name = name

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return Bus(self._nets[index], name=self.name)
        return self._nets[index]

    def __len__(self) -> int:
        return len(self._nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self._nets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bus({self.name!r}, width={len(self._nets)})"

    @property
    def width(self) -> int:
        """Number of bits in the bus."""
        return len(self._nets)

    def bits(self) -> List[Net]:
        """Return the underlying nets, LSB first."""
        return list(self._nets)


@dataclass(eq=False)
class Cell:
    """An instance of a primitive cell.

    ``pins`` maps pin names (as declared by the cell's :class:`CellSpec`) to
    the nets they connect to.  Output pins always drive their net; input pins
    load theirs.
    """

    name: str
    cell_type: str
    pins: Dict[str, Net] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell({self.name!r}, {self.cell_type})"

    @property
    def spec(self) -> CellSpec:
        """The :class:`CellSpec` describing this cell's type."""
        return PRIMITIVES[self.cell_type]

    def input_nets(self) -> Dict[str, Net]:
        """Mapping of input pin name to connected net."""
        pins = self.pins
        return {p: pins[p] for p in INPUT_PINS[self.cell_type] if p in pins}

    def output_nets(self) -> Dict[str, Net]:
        """Mapping of output pin name to connected net."""
        pins = self.pins
        return {p: pins[p] for p in OUTPUT_PINS[self.cell_type] if p in pins}


class Netlist:
    """A flat netlist of primitive cells.

    Parameters
    ----------
    name:
        Entity/module name used by the emitters.
    """

    def __init__(self, name: str = "top"):
        if not _IDENT_RE.match(name):
            raise NetlistError(f"invalid netlist name: {name!r}")
        self.name = name
        self._nets: Dict[str, Net] = {}
        self._cells: Dict[str, Cell] = {}
        self._inputs: Dict[str, Net] = {}
        self._outputs: Dict[str, Net] = {}
        self._name_counter = itertools.count()
        # Cached topological_combinational_order, dropped on any structural
        # mutation (add_cell / remove_cell / replace_net).
        self._topo_cache: Optional[List[Cell]] = None
        # Rewrite listeners: called as listener(event, *payload) after every
        # structural mutation.  Optimization passes use these to seed their
        # dirty worklists instead of rescanning the whole netlist.
        self._rewrite_listeners: List[Callable[..., None]] = []

    # ------------------------------------------------------------------ nets
    def _unique_name(self, prefix: str, table: Dict[str, object]) -> str:
        candidate = prefix
        while candidate in table:
            candidate = f"{prefix}_{next(self._name_counter)}"
        return candidate

    def net(self, name: Optional[str] = None) -> Net:
        """Create (or fetch) a net.

        When ``name`` is ``None`` a fresh anonymous net is created.  When a
        net with the given name already exists it is returned, which lets
        builders share nets by name.
        """
        if name is None:
            name = self._unique_name(f"n{next(self._name_counter)}", self._nets)
        if name in self._nets:
            return self._nets[name]
        if not _IDENT_RE.match(name):
            raise NetlistError(f"invalid net name: {name!r}")
        net = Net(name=name)
        self._nets[name] = net
        return net

    def new_net(self, prefix: str = "n") -> Net:
        """Create a fresh net with a unique name derived from ``prefix``."""
        name = self._unique_name(f"{prefix}{next(self._name_counter)}", self._nets)
        return self.net(name)

    def bus(self, width: int, prefix: str = "b") -> Bus:
        """Create a bus of ``width`` fresh nets."""
        if width < 0:
            raise NetlistError(f"bus width must be non-negative, got {width}")
        return Bus([self.new_net(f"{prefix}_{i}_") for i in range(width)], name=prefix)

    # ----------------------------------------------------------------- ports
    def add_input(self, name: str) -> Net:
        """Declare a top-level input port and return its net."""
        net = self.net(name)
        if net.driver is not None:
            raise NetlistError(f"net {name!r} already driven; cannot be an input")
        net.is_input = True
        self._inputs[name] = net
        return net

    def add_input_bus(self, name: str, width: int) -> Bus:
        """Declare a ``width``-bit input bus ``name[0..width-1]``."""
        return Bus([self.add_input(f"{name}_{i}") for i in range(width)], name=name)

    def add_output(self, name: str, net: Net) -> Net:
        """Declare ``net`` as the top-level output port ``name``."""
        if name in self._outputs:
            raise NetlistError(f"duplicate output port {name!r}")
        self._outputs[name] = net
        return net

    def add_output_bus(self, name: str, bus: Sequence[Net]) -> Bus:
        """Declare every bit of ``bus`` as output ports ``name_<i>``."""
        nets = [self.add_output(f"{name}_{i}", bit) for i, bit in enumerate(bus)]
        return Bus(nets, name=name)

    @property
    def inputs(self) -> Dict[str, Net]:
        """Top-level input ports, by name."""
        return dict(self._inputs)

    @property
    def outputs(self) -> Dict[str, Net]:
        """Top-level output ports, by name."""
        return dict(self._outputs)

    @property
    def nets(self) -> Dict[str, Net]:
        """All nets, by name."""
        return dict(self._nets)

    @property
    def cells(self) -> Dict[str, Cell]:
        """All cell instances, by instance name."""
        return dict(self._cells)

    def has_cell(self, name: str) -> bool:
        """True when cell instance ``name`` exists.

        Unlike ``name in netlist.cells`` this does not copy the cell table,
        so it is safe to call inside per-cell optimization loops.
        """
        return name in self._cells

    # --------------------------------------------------------- change tracking
    def add_rewrite_listener(
        self, listener: Callable[..., None]
    ) -> Callable[[], None]:
        """Register a structural-mutation observer; returns an unsubscriber.

        ``listener`` is invoked after every mutation as:

        * ``listener("add_cell", cell)``
        * ``listener("remove_cell", cell)`` (after disconnection)
        * ``listener("replace_net", old, new, moved)`` where ``moved`` is the
          list of ``(cell, pin)`` loads re-pointed from ``old`` to ``new``

        Optimization passes register a listener for the duration of one run
        to seed their dirty worklists from the exact cells a rewrite touched,
        instead of rescanning every cell every sweep.
        """
        self._rewrite_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._rewrite_listeners.remove(listener)
            except ValueError:  # sradlint: disable=ast.silent-except -- unsubscribe is documented as idempotent
                pass

        return unsubscribe

    def _notify(self, event: str, *payload) -> None:
        for listener in tuple(self._rewrite_listeners):
            listener(event, *payload)

    # ----------------------------------------------------------------- cells
    def add_cell(
        self,
        cell_type: str,
        name: Optional[str] = None,
        **pins: Net,
    ) -> Cell:
        """Instantiate a primitive cell.

        Parameters
        ----------
        cell_type:
            Name of a primitive registered in :data:`repro.hdl.primitives.PRIMITIVES`.
        name:
            Optional instance name; a unique one is generated when omitted.
        pins:
            Pin-name to :class:`Net` connections.  All declared pins of the
            cell type must be connected.  The keyword order becomes
            ``Cell.pins`` order (the emitters print pins in it) and, per
            net, the order of the loads this cell adds.
        """
        declared = _DECLARED_PINS.get(cell_type)
        if declared is None:
            raise NetlistError(f"unknown cell type {cell_type!r}")
        if name is None:
            name = self._unique_name(
                f"u{next(self._name_counter)}_{cell_type.lower()}", self._cells
            )
        if name in self._cells:
            raise NetlistError(f"duplicate cell instance name {name!r}")
        if pins.keys() != declared:
            missing, extra = sorted(declared - pins.keys()), sorted(pins.keys() - declared)
            problem = f"unconnected pins {missing}" if missing else f"unknown pins {extra}"
            raise NetlistError(f"cell {name!r} ({cell_type}): {problem}")
        # ``pins`` is this call's own keyword dict, so the cell keeps it.
        cell = Cell(name, cell_type, pins)
        outputs = OUTPUT_PINS[cell_type]
        for pin_name, net in pins.items():
            if pin_name in outputs:
                if net.driver is not None or net.is_input:
                    raise NetlistError(
                        f"net {net.name!r} already driven; cannot also be driven "
                        f"by {name}.{pin_name}"
                    )
                net.driver = (cell, pin_name)
            else:
                net.loads.append((cell, pin_name))
        self._cells[name] = cell
        self._topo_cache = None
        if self._rewrite_listeners:
            self._notify("add_cell", cell)
        return cell

    # ------------------------------------------------------- helper builders
    def const(self, value: int) -> Net:
        """Return a net tied to constant 0 or 1."""
        if value not in (0, 1):
            raise NetlistError(f"constant must be 0 or 1, got {value!r}")
        cell_type = "TIE1" if value else "TIE0"
        net = self.new_net("const")
        self.add_cell(cell_type, Y=net)
        return net

    def const_bus(self, value: int, width: int) -> Bus:
        """Return a bus tied to the binary encoding of ``value`` (LSB first)."""
        if value < 0 or value >= (1 << width):
            raise NetlistError(f"constant {value} does not fit in {width} bits")
        return Bus(
            [self.const((value >> i) & 1) for i in range(width)],
            name=f"const{value}",
        )

    # ------------------------------------------------------------- rewriting
    def replace_net(self, old: Net, new: Net) -> int:
        """Re-point every load and output-port alias of ``old`` at ``new``.

        ``old`` keeps its driver (if any) but ends up with no loads, which is
        the primitive behind every netlist-rewriting optimization: fold a
        cell by replacing its output net with an equivalent net, then remove
        the cell.  Returns the number of connections moved.
        """
        if old is new:
            return 0
        for net in (old, new):
            if self._nets.get(net.name) is not net:
                raise NetlistError(f"net {net.name!r} is not in this netlist")
        moved_loads = old.loads
        for cell, pin in moved_loads:
            cell.pins[pin] = new
            new.loads.append((cell, pin))
        moved = len(moved_loads)
        old.loads = []
        for port_name, net in self._outputs.items():
            if net is old:
                self._outputs[port_name] = new
                moved += 1
        self._topo_cache = None
        if self._rewrite_listeners:
            self._notify("replace_net", old, new, moved_loads)
        return moved

    def distribute_loads(
        self,
        old: Net,
        keep: Sequence[Tuple[Cell, str]],
        moves: Sequence[Tuple[Net, Sequence[Tuple[Cell, str]]]],
    ) -> int:
        """Split ``old``'s loads: ``keep`` stays, each ``(new, loads)`` moves.

        The many-way counterpart of :meth:`replace_net`: buffer-tree
        insertion hands one net's fanout to several buffers in one call.
        ``keep`` plus every moved group must be exactly ``old``'s current
        loads; ``old.loads`` becomes ``keep`` in the given order, and each
        group is appended, in order, to its new net's loads.  Listeners
        receive one ``("replace_net", old, new, moved)`` event per group.
        Returns the number of connections moved.
        """
        for net in (old, *(new for new, _ in moves)):
            if self._nets.get(net.name) is not net:
                raise NetlistError(f"net {net.name!r} is not in this netlist")
        moved = [load for _, group in moves for load in group]
        for cell, pin in (*keep, *moved):
            if cell.pins.get(pin) is not old:
                raise NetlistError(f"{cell.name}.{pin} does not load net {old.name!r}")
        if len(keep) + len(moved) != len(old.loads) or any(new is old for new, _ in moves):
            raise NetlistError(
                f"kept and moved loads do not partition the loads of {old.name!r}"
            )
        old.loads = list(keep)
        for new, group in moves:
            for cell, pin in group:
                cell.pins[pin] = new
            new.loads.extend(group)
        self._topo_cache = None
        if self._rewrite_listeners:
            for new, group in moves:
                self._notify("replace_net", old, new, list(group))
        return len(moved)

    def remove_cell(self, name: str) -> Cell:
        """Disconnect and delete the cell instance ``name``.

        Output nets driven by the cell are left undriven (the caller either
        re-drives them or prunes them); input nets lose the corresponding
        load entries.  Returns the removed cell.
        """
        if name not in self._cells:
            raise NetlistError(f"unknown cell instance {name!r}")
        cell = self._cells.pop(name)
        outputs = OUTPUT_PINS[cell.cell_type]
        for pin_name, net in cell.pins.items():
            if pin_name in outputs:
                if net.driver == (cell, pin_name):
                    net.driver = None
            else:
                try:
                    net.loads.remove((cell, pin_name))
                except ValueError:  # sradlint: disable=ast.silent-except -- load entry already detached by an earlier rewrite
                    pass
        self._topo_cache = None
        if self._rewrite_listeners:
            self._notify("remove_cell", cell)
        return cell

    def prune_dangling_nets(self) -> int:
        """Delete nets with no driver, no loads and no port role.

        Returns the number of nets removed.  Top-level input nets and nets
        aliased by an output port are never pruned, so the interface of the
        netlist is stable under optimization.
        """
        aliased = {id(net) for net in self._outputs.values()}
        doomed = [
            name
            for name, net in self._nets.items()
            if net.driver is None
            and not net.loads
            and not net.is_input
            and id(net) not in aliased
        ]
        for name in doomed:
            del self._nets[name]
        return len(doomed)

    # ----------------------------------------------------------------- copy
    def clone(self) -> "Netlist":
        """Deep copy of the netlist (cells, nets and ports all re-created).

        :func:`~repro.synth.flow.run_synthesis_flow` rewrites a clone, which
        leaves its caller's netlist untouched.  The copy builds ``Net``/``Cell`` objects directly rather than via
        ``copy.deepcopy``: the driver/load links between nets and cells form
        chains as deep as the longest shift register, which overflows the
        recursion limit for large arrays.  Each net's loads keep the
        source's order (for a netlist built cell by cell, that is cell
        order, then pin order), so every float sum over a net's loads, and
        with it every delay, is the same on the copy.
        """
        other = Netlist(self.name)
        nets = other._nets
        for name, net in self._nets.items():
            nets[name] = Net(name=name, is_input=net.is_input)
        for name in self._inputs:
            other._inputs[name] = nets[name]
        cells = other._cells
        for name, cell in self._cells.items():
            copy = Cell(
                name, cell.cell_type, {pin: nets[net.name] for pin, net in cell.pins.items()}
            )
            outputs = OUTPUT_PINS[cell.cell_type]
            for pin_name, net in copy.pins.items():
                if pin_name in outputs:
                    if net.has_driver:
                        raise NetlistError(
                            f"net {net.name!r} already driven; cannot also be "
                            f"driven by {name}.{pin_name}"
                        )
                    net.driver = (copy, pin_name)
            cells[name] = copy
        for name, net in self._nets.items():
            nets[name].loads = [(cells[cell.name], pin) for cell, pin in net.loads]
        for port_name, net in self._outputs.items():
            other._outputs[port_name] = nets[net.name]
        return other

    # ---------------------------------------------------------- introspection
    def sequential_cells(self) -> List[Cell]:
        """Return all flip-flop cells."""
        return [c for c in self._cells.values() if c.cell_type in SEQUENTIAL]

    def combinational_cells(self) -> List[Cell]:
        """Return all non-flip-flop cells."""
        return [c for c in self._cells.values() if c.cell_type not in SEQUENTIAL]

    def stats(self) -> Dict[str, int]:
        """Return a histogram of cell types plus totals."""
        histogram: Dict[str, int] = {}
        for cell in self._cells.values():
            histogram[cell.cell_type] = histogram.get(cell.cell_type, 0) + 1
        histogram["_total_cells"] = len(self._cells)
        histogram["_total_nets"] = len(self._nets)
        histogram["_flip_flops"] = len(self.sequential_cells())
        return histogram

    def validate(self) -> None:
        """Check structural integrity.

        Raises
        ------
        NetlistError
            If any net used by a cell or output port has no driver, or if a
            declared output port's net does not exist in the netlist.
        """
        inputs = INPUT_PINS
        for cell in self._cells.values():
            pins = cell.pins
            for pin_name in inputs[cell.cell_type]:
                net = pins.get(pin_name)
                if net is not None and net.driver is None and not net.is_input:
                    raise NetlistError(
                        f"net {net.name!r} feeding {cell.name}.{pin_name} has no driver"
                    )
        for port_name, net in self._outputs.items():
            if not net.has_driver:
                raise NetlistError(
                    f"output port {port_name!r} net {net.name!r} has no driver"
                )
            if net.name not in self._nets:
                raise NetlistError(
                    f"output port {port_name!r} references unknown net {net.name!r}"
                )

    def topological_combinational_order(self) -> List[Cell]:
        """Return combinational cells in evaluation order.

        Flip-flop outputs and top-level inputs are treated as sources.  A
        combinational loop raises :class:`NetlistError`.

        The order is cached and invalidated on any structural mutation, so
        the simulators, timing analysis and the optimization passes share
        one levelisation instead of each recomputing it from scratch.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        inputs, sequential = INPUT_PINS, SEQUENTIAL
        comb = self.combinational_cells()
        # Kahn levelisation keyed by the cells themselves (identity hash).
        # One dependent entry and one indegree count per input pin, so a
        # cell reading one driver on two pins waits for both releases.
        indegree: Dict[Cell, int] = {}
        dependents: Dict[Cell, List[Cell]] = {}
        for cell in comb:
            pins = cell.pins
            count = 0
            for pin in inputs[cell.cell_type]:
                net = pins.get(pin)
                if net is None or net.driver is None:
                    continue
                driver_cell = net.driver[0]
                if driver_cell.cell_type not in sequential:
                    count += 1
                    waiting = dependents.get(driver_cell)
                    if waiting is None:
                        dependents[driver_cell] = [cell]
                    else:
                        waiting.append(cell)
            indegree[cell] = count
        ready = [c for c in comb if not indegree[c]]
        order: List[Cell] = []
        while ready:
            cell = ready.pop()
            order.append(cell)
            for dep in dependents.get(cell, ()):
                left = indegree[dep] - 1
                indegree[dep] = left
                if not left:
                    ready.append(dep)
        if len(order) != len(comb):
            placed = set(order)
            cyclic = sorted(c.name for c in comb if c not in placed)
            raise NetlistError(f"combinational loop involving cells: {cyclic[:10]}")
        self._topo_cache = order
        return list(order)
