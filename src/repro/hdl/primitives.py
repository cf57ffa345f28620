"""Primitive cell vocabulary.

Every netlist in the reproduction is built from the fixed set of primitive
cell types defined here.  A primitive is described by a :class:`CellSpec`
holding its pin lists, whether it is sequential, and a functional model used
by the cycle-accurate simulator.

The set mirrors a small 0.18 um-class standard-cell library: inverters and
buffers, 2/3/4-input NAND / NOR / AND / OR, XOR / XNOR, a 2:1 multiplexor,
AOI/OAI cells, constant ties and a family of D flip-flops with optional
clock-enable and synchronous reset/set.  Area and timing characteristics for
the same type names live in :mod:`repro.synth.cell_library`; this module is
purely structural/functional so the HDL layer has no dependency on the
synthesis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Mapping, Sequence, Tuple

__all__ = [
    "CellSpec",
    "PRIMITIVES",
    "INPUT_PINS",
    "OUTPUT_PINS",
    "SEQUENTIAL",
    "is_sequential",
    "combinational_eval",
    "flop_next_state",
    "compile_comb",
    "compile_flop",
]

# A combinational evaluation function maps input pin values to output pin values.
CombEval = Callable[[Mapping[str, int]], Dict[str, int]]


@dataclass(frozen=True)
class CellSpec:
    """Static description of a primitive cell type.

    Attributes
    ----------
    name:
        Cell type name, e.g. ``"NAND2"``.
    inputs:
        Ordered input pin names.
    outputs:
        Ordered output pin names.
    sequential:
        ``True`` for flip-flops.
    eval_fn:
        Functional model.  For combinational cells it maps input pin values
        to output pin values.  For sequential cells it computes the *next*
        state from the pins ``D``/``EN``/``RST``/``SET`` and the current
        state ``Q`` (passed in the mapping under the key ``"Q"``).
    description:
        Human-readable description used in documentation and reports.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    sequential: bool
    eval_fn: CombEval
    description: str = ""


def _bit(value: int) -> int:
    return 1 if value else 0


# --------------------------------------------------------------------------
# Combinational models
# --------------------------------------------------------------------------

def _tie0(_: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": 0}


def _tie1(_: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": 1}


def _buf(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(pins["A"])}


def _inv(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(not pins["A"])}


def _and_fn(names: Sequence[str]) -> CombEval:
    def fn(pins: Mapping[str, int]) -> Dict[str, int]:
        return {"Y": _bit(all(pins[n] for n in names))}

    return fn


def _nand_fn(names: Sequence[str]) -> CombEval:
    def fn(pins: Mapping[str, int]) -> Dict[str, int]:
        return {"Y": _bit(not all(pins[n] for n in names))}

    return fn


def _or_fn(names: Sequence[str]) -> CombEval:
    def fn(pins: Mapping[str, int]) -> Dict[str, int]:
        return {"Y": _bit(any(pins[n] for n in names))}

    return fn


def _nor_fn(names: Sequence[str]) -> CombEval:
    def fn(pins: Mapping[str, int]) -> Dict[str, int]:
        return {"Y": _bit(not any(pins[n] for n in names))}

    return fn


def _xor2(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(bool(pins["A"]) != bool(pins["B"]))}


def _xnor2(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(bool(pins["A"]) == bool(pins["B"]))}


def _mux2(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(pins["B"] if pins["S"] else pins["A"])}


def _aoi21(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(not ((pins["A"] and pins["B"]) or pins["C"]))}


def _oai21(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Y": _bit(not ((pins["A"] or pins["B"]) and pins["C"]))}


# --------------------------------------------------------------------------
# Sequential models
#
# The mapping passed to the eval function contains the connected data pins
# plus "Q" (the current state).  The function returns the next state after a
# rising clock edge.  Reset/set are synchronous and dominate the enable.
# --------------------------------------------------------------------------

def _dff(pins: Mapping[str, int]) -> Dict[str, int]:
    return {"Q": _bit(pins["D"])}


def _dff_rst(pins: Mapping[str, int]) -> Dict[str, int]:
    if pins["RST"]:
        return {"Q": 0}
    return {"Q": _bit(pins["D"])}


def _dff_set(pins: Mapping[str, int]) -> Dict[str, int]:
    if pins["SET"]:
        return {"Q": 1}
    return {"Q": _bit(pins["D"])}


def _dff_en(pins: Mapping[str, int]) -> Dict[str, int]:
    if pins["EN"]:
        return {"Q": _bit(pins["D"])}
    return {"Q": _bit(pins["Q"])}


def _dff_en_rst(pins: Mapping[str, int]) -> Dict[str, int]:
    if pins["RST"]:
        return {"Q": 0}
    if pins["EN"]:
        return {"Q": _bit(pins["D"])}
    return {"Q": _bit(pins["Q"])}


def _dff_en_set(pins: Mapping[str, int]) -> Dict[str, int]:
    if pins["SET"]:
        return {"Q": 1}
    if pins["EN"]:
        return {"Q": _bit(pins["D"])}
    return {"Q": _bit(pins["Q"])}


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

def _spec(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    eval_fn: CombEval,
    sequential: bool = False,
    description: str = "",
) -> CellSpec:
    return CellSpec(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        sequential=sequential,
        eval_fn=eval_fn,
        description=description,
    )


PRIMITIVES: Dict[str, CellSpec] = {}


def _register(spec: CellSpec) -> None:
    PRIMITIVES[spec.name] = spec


_register(_spec("TIE0", [], ["Y"], _tie0, description="constant logic 0"))
_register(_spec("TIE1", [], ["Y"], _tie1, description="constant logic 1"))
_register(_spec("BUF", ["A"], ["Y"], _buf, description="non-inverting buffer"))
_register(_spec("INV", ["A"], ["Y"], _inv, description="inverter"))

for _n in (2, 3, 4):
    _pins = ["A", "B", "C", "D"][:_n]
    _register(_spec(f"AND{_n}", _pins, ["Y"], _and_fn(_pins), description=f"{_n}-input AND"))
    _register(_spec(f"NAND{_n}", _pins, ["Y"], _nand_fn(_pins), description=f"{_n}-input NAND"))
    _register(_spec(f"OR{_n}", _pins, ["Y"], _or_fn(_pins), description=f"{_n}-input OR"))
    _register(_spec(f"NOR{_n}", _pins, ["Y"], _nor_fn(_pins), description=f"{_n}-input NOR"))

_register(_spec("XOR2", ["A", "B"], ["Y"], _xor2, description="2-input XOR"))
_register(_spec("XNOR2", ["A", "B"], ["Y"], _xnor2, description="2-input XNOR"))
_register(_spec("MUX2", ["A", "B", "S"], ["Y"], _mux2,
                description="2:1 multiplexor, Y = B when S else A"))
_register(_spec("AOI21", ["A", "B", "C"], ["Y"], _aoi21,
                description="AND-OR-invert: Y = !(A&B | C)"))
_register(_spec("OAI21", ["A", "B", "C"], ["Y"], _oai21,
                description="OR-AND-invert: Y = !((A|B) & C)"))

_register(_spec("DFF", ["D", "CLK"], ["Q"], _dff, sequential=True,
                description="D flip-flop"))
_register(_spec("DFF_RST", ["D", "CLK", "RST"], ["Q"], _dff_rst, sequential=True,
                description="D flip-flop with synchronous reset to 0"))
_register(_spec("DFF_SET", ["D", "CLK", "SET"], ["Q"], _dff_set, sequential=True,
                description="D flip-flop with synchronous set to 1"))
_register(_spec("DFF_EN", ["D", "CLK", "EN"], ["Q"], _dff_en, sequential=True,
                description="D flip-flop with clock enable"))
_register(_spec("DFF_EN_RST", ["D", "CLK", "EN", "RST"], ["Q"], _dff_en_rst, sequential=True,
                description="D flip-flop with clock enable and synchronous reset to 0"))
_register(_spec("DFF_EN_SET", ["D", "CLK", "EN", "SET"], ["Q"], _dff_en_set, sequential=True,
                description="D flip-flop with clock enable and synchronous set to 1"))

#: Per-type tables derived once from the registry.  The netlist kernels
#: (cell creation, validation, levelisation, buffering, timing and net
#: loads) index these by ``cell_type`` instead of fetching a
#: :class:`CellSpec` and building a pin dict for every cell on every pass.
INPUT_PINS: Dict[str, Tuple[str, ...]] = {n: s.inputs for n, s in PRIMITIVES.items()}
OUTPUT_PINS: Dict[str, Tuple[str, ...]] = {n: s.outputs for n, s in PRIMITIVES.items()}
SEQUENTIAL: FrozenSet[str] = frozenset(n for n, s in PRIMITIVES.items() if s.sequential)


def is_sequential(cell_type: str) -> bool:
    """Return ``True`` when ``cell_type`` names a flip-flop primitive."""
    return PRIMITIVES[cell_type].sequential


def combinational_eval(cell_type: str, pins: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate a combinational primitive's outputs for the given pin values."""
    spec = PRIMITIVES[cell_type]
    if spec.sequential:
        raise ValueError(f"{cell_type} is sequential; use flop_next_state()")
    return spec.eval_fn(pins)


def flop_next_state(cell_type: str, pins: Mapping[str, int]) -> int:
    """Compute a flip-flop's next state after a rising clock edge.

    ``pins`` must contain the connected data/control pin values plus the
    current state under the key ``"Q"``.
    """
    spec = PRIMITIVES[cell_type]
    if not spec.sequential:
        raise ValueError(f"{cell_type} is combinational; use combinational_eval()")
    return spec.eval_fn(pins)["Q"]


# --------------------------------------------------------------------------
# Compiled evaluation
#
# The compiled simulator (:mod:`repro.hdl.compiled`) stores every net value
# in one flat list and asks this module for a closure per cell instance that
# reads its input slots and returns the output bit -- no per-step pin-name
# dict building.  The closures assume the value list only ever holds 0/1,
# which the simulator guarantees by normalising at every write.
# --------------------------------------------------------------------------

def compile_comb(cell_type: str, in_slots: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """Return ``fn(values) -> bit`` evaluating one combinational cell.

    ``in_slots`` are the value-array indices of the cell's input pins in
    ``PRIMITIVES[cell_type].inputs`` order.  Every combinational primitive
    has a hand-written model here; the tests compile each entry of
    :data:`PRIMITIVES`.
    """
    slots = tuple(in_slots)
    if cell_type == "TIE0":
        return lambda v: 0
    if cell_type == "TIE1":
        return lambda v: 1
    if cell_type == "BUF":
        (a,) = slots
        return lambda v: v[a]
    if cell_type == "INV":
        (a,) = slots
        return lambda v: 1 - v[a]
    if cell_type in ("AND2", "AND3", "AND4"):
        if len(slots) == 2:
            a, b = slots
            return lambda v: v[a] & v[b]
        if len(slots) == 3:
            a, b, c = slots
            return lambda v: v[a] & v[b] & v[c]
        a, b, c, d = slots
        return lambda v: v[a] & v[b] & v[c] & v[d]
    if cell_type in ("NAND2", "NAND3", "NAND4"):
        if len(slots) == 2:
            a, b = slots
            return lambda v: 1 - (v[a] & v[b])
        if len(slots) == 3:
            a, b, c = slots
            return lambda v: 1 - (v[a] & v[b] & v[c])
        a, b, c, d = slots
        return lambda v: 1 - (v[a] & v[b] & v[c] & v[d])
    if cell_type in ("OR2", "OR3", "OR4"):
        if len(slots) == 2:
            a, b = slots
            return lambda v: v[a] | v[b]
        if len(slots) == 3:
            a, b, c = slots
            return lambda v: v[a] | v[b] | v[c]
        a, b, c, d = slots
        return lambda v: v[a] | v[b] | v[c] | v[d]
    if cell_type in ("NOR2", "NOR3", "NOR4"):
        if len(slots) == 2:
            a, b = slots
            return lambda v: 1 - (v[a] | v[b])
        if len(slots) == 3:
            a, b, c = slots
            return lambda v: 1 - (v[a] | v[b] | v[c])
        a, b, c, d = slots
        return lambda v: 1 - (v[a] | v[b] | v[c] | v[d])
    if cell_type == "XOR2":
        a, b = slots
        return lambda v: v[a] ^ v[b]
    if cell_type == "XNOR2":
        a, b = slots
        return lambda v: 1 - (v[a] ^ v[b])
    if cell_type == "MUX2":
        a, b, s = slots
        return lambda v: v[b] if v[s] else v[a]
    if cell_type == "AOI21":
        a, b, c = slots
        return lambda v: 1 - ((v[a] & v[b]) | v[c])
    if cell_type == "OAI21":
        a, b, c = slots
        return lambda v: 1 - ((v[a] | v[b]) & v[c])
    raise ValueError(f"no compiled model for {cell_type}")


def compile_flop(cell_type: str, slot_of: Mapping[str, int]) -> Callable[[Sequence[int], int], int]:
    """Return ``fn(values, state) -> next_state`` for one flip-flop instance.

    ``slot_of`` maps the flop's connected input pin names to value-array
    indices (``CLK`` may be present; it is functionally ignored).
    """
    if cell_type == "DFF":
        d = slot_of["D"]
        return lambda v, q: v[d]
    if cell_type == "DFF_RST":
        d, r = slot_of["D"], slot_of["RST"]
        return lambda v, q: 0 if v[r] else v[d]
    if cell_type == "DFF_SET":
        d, s = slot_of["D"], slot_of["SET"]
        return lambda v, q: 1 if v[s] else v[d]
    if cell_type == "DFF_EN":
        d, e = slot_of["D"], slot_of["EN"]
        return lambda v, q: v[d] if v[e] else q
    if cell_type == "DFF_EN_RST":
        d, e, r = slot_of["D"], slot_of["EN"], slot_of["RST"]
        return lambda v, q: 0 if v[r] else (v[d] if v[e] else q)
    if cell_type == "DFF_EN_SET":
        d, e, s = slot_of["D"], slot_of["EN"], slot_of["SET"]
        return lambda v, q: 1 if v[s] else (v[d] if v[e] else q)
    raise ValueError(f"no compiled model for {cell_type}")
