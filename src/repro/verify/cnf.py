"""Tseitin CNF encoding of netlists, derived automatically from ``PRIMITIVES``.

Nothing in this module hard-codes a single gate function.  Every cell type's
clauses are generated by enumerating its truth table through the *reference
evaluators* -- :func:`repro.hdl.primitives.combinational_eval` for gates and
:func:`repro.hdl.primitives.flop_next_state` for registers -- so the CNF
semantics can never drift from what the simulators compute.  A cell with
``k`` inputs contributes ``2**k`` clauses of width ``k + 1`` (one clause per
truth-table row, asserting the row's output value); with the library capped
at 4 inputs that is at most 16 short clauses per cell.

The encoder is incremental-solver friendly: :class:`CnfBuilder` wraps a
:class:`~repro.verify.sat.SatSolver` and hands out variables/clauses
directly, so the equivalence checker can interleave encoding with proved
queries (SAT sweeping).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from repro.hdl.netlist import Netlist
from repro.hdl.primitives import PRIMITIVES, combinational_eval, flop_next_state

from .sat import SatSolver

__all__ = [
    "CnfBuilder",
    "comb_rows",
    "flop_rows",
    "encode_netlist",
    "encode_flop_next",
]

_TIE_CELLS = frozenset({"TIE0", "TIE1"})


@lru_cache(maxsize=None)
def comb_rows(cell_type: str) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Truth table of a combinational cell as ``((input bits, output), ...)``.

    Input bits follow the pin order of ``PRIMITIVES[cell_type].inputs``.
    """
    spec = PRIMITIVES[cell_type]
    if spec.sequential:
        raise ValueError(f"{cell_type} is sequential; use flop_rows")
    names = spec.inputs
    out_pin = spec.outputs[0]
    rows = []
    for minterm in range(1 << len(names)):
        pins = {name: (minterm >> i) & 1 for i, name in enumerate(names)}
        out = combinational_eval(cell_type, pins)[out_pin]
        rows.append((tuple(pins[name] for name in names), out))
    return tuple(rows)


@lru_cache(maxsize=None)
def flop_rows(
    cell_type: str, pin_names: Tuple[str, ...]
) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Next-state table of a flop over ``pin_names`` (which must include "Q").

    ``CLK`` is excluded by callers: the next-state function is evaluated on
    the settled pre-edge pin values, exactly like ``Simulator.step``.
    """
    spec = PRIMITIVES[cell_type]
    if not spec.sequential:
        raise ValueError(f"{cell_type} is combinational; use comb_rows")
    rows = []
    for minterm in range(1 << len(pin_names)):
        pins = {name: (minterm >> i) & 1 for i, name in enumerate(pin_names)}
        pins.setdefault("CLK", 0)
        out = flop_next_state(cell_type, pins)
        rows.append((tuple(pins[name] for name in pin_names), out))
    return tuple(rows)


class CnfBuilder:
    """Variable allocation plus gate-level clause emission over a fresh solver."""

    def __init__(self) -> None:
        self.solver = SatSolver()
        self._false_lit: Optional[int] = None

    # ------------------------------------------------------------- primitives
    def new_var(self) -> int:
        return self.solver.new_var()

    def add(self, *lits: int) -> None:
        self.solver.add_clause(lits)

    def false_lit(self) -> int:
        """A literal constrained to 0 (shared; used for reset states/ties)."""
        if self._false_lit is None:
            var = self.new_var()
            self.add(-var)
            self._false_lit = var
        return self._false_lit

    def true_lit(self) -> int:
        return -self.false_lit()

    def constant(self, value: int) -> int:
        return self.true_lit() if value else self.false_lit()

    # ------------------------------------------------------------------ gates
    def encode_rows(
        self,
        rows: Iterable[Tuple[Tuple[int, ...], int]],
        in_lits: Tuple[int, ...],
        out_lit: int,
    ) -> None:
        """Assert ``out_lit == f(in_lits)`` for the tabulated function."""
        add_clause = self.solver.add_clause
        for bits, out in rows:
            clause = [(-lit if bit else lit) for lit, bit in zip(in_lits, bits)]
            clause.append(out_lit if out else -out_lit)
            add_clause(clause)

    def encode_cell(
        self, cell_type: str, in_lits: Tuple[int, ...], out_lit: int
    ) -> None:
        self.encode_rows(comb_rows(cell_type), in_lits, out_lit)

    def xor_lit(self, a: int, b: int) -> int:
        """A fresh literal ``t`` with ``t -> (a != b)``.

        One-directional on purpose: in a miter we only need models where a
        difference flag is *true* to witness a real difference, and leaving
        the reverse implication out keeps the CNF smaller.  UNSAT of "some
        flag true" still proves no difference exists, because the solver is
        free to raise any flag whose pair can differ.
        """
        t = self.new_var()
        self.add(-t, a, b)
        self.add(-t, -a, -b)
        return t

    def assert_equal(self, a: int, b: int) -> None:
        self.add(-a, b)
        self.add(a, -b)


def encode_netlist(
    builder: CnfBuilder,
    netlist: Netlist,
    net_lits: Optional[Dict[str, int]] = None,
    *,
    free_ties: bool = False,
) -> Dict[str, int]:
    """Encode the combinational fabric of ``netlist``; return net-name -> lit.

    Pre-seeded entries in ``net_lits`` are honoured (that is how a miter
    shares input-port and register-state variables between two netlists).
    Any net without a driver constraint -- input ports, flop ``Q`` outputs,
    genuinely undriven nets -- becomes a free variable.  With ``free_ties``
    the outputs of ``TIE0``/``TIE1`` cells are left unconstrained as well,
    which the SAT lint rules use so that deliberately tied-off control pins
    do not count as "provably constant" logic.
    """
    lits: Dict[str, int] = dict(net_lits or {})

    def lit_for(net_name: str) -> int:
        lit = lits.get(net_name)
        if lit is None:
            lit = builder.new_var()
            lits[net_name] = lit
        return lit

    for net in netlist.inputs.values():
        lit_for(net.name)
    for flop in netlist.sequential_cells():
        lit_for(flop.pins["Q"].name)
    for cell in netlist.topological_combinational_order():
        spec = cell.spec
        out_lit = lit_for(cell.pins[spec.outputs[0]].name)
        if free_ties and cell.cell_type in _TIE_CELLS:
            continue
        in_lits = tuple(lit_for(cell.pins[pin].name) for pin in spec.inputs)
        builder.encode_cell(cell.cell_type, in_lits, out_lit)
    # Give every remaining (undriven) net a variable so queries about it are
    # well-formed.
    for name in netlist.nets:
        lit_for(name)
    return lits


def encode_flop_next(
    builder: CnfBuilder, netlist: Netlist, net_lits: Dict[str, int]
) -> Dict[str, int]:
    """Encode each flop's next-state function; return flop name -> lit.

    ``net_lits`` must already cover the netlist (from
    :func:`encode_netlist`); the current state enters through the flop's
    ``Q``-net literal, mirroring ``Simulator.step``'s evaluation of the
    settled pre-edge values.
    """
    next_lits: Dict[str, int] = {}
    for flop in netlist.sequential_cells():
        spec = flop.spec
        pin_names = tuple(
            [pin for pin in spec.inputs if pin != "CLK"] + ["Q"]
        )
        in_lits = tuple(net_lits[flop.pins[pin].name] for pin in pin_names)
        out_lit = builder.new_var()
        builder.encode_rows(
            flop_rows(flop.cell_type, pin_names), in_lits, out_lit
        )
        next_lits[flop.name] = out_lit
    return next_lits
