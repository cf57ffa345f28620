"""Standard-cell library model.

The paper synthesises every design with Synopsys Design Compiler against a
0.18 um CMOS standard-cell library and reports area in "cell units" and delay
in nanoseconds.  We cannot run a proprietary synthesis flow offline, so this
module provides a calibrated stand-in:

* every primitive cell type used by the netlists gets an **area** in cell
  units, an **input capacitance** (in units of a minimum inverter input
  capacitance), and a **logical-effort style delay model** -- the delay of a
  gate driving a load ``C_load`` is ``tau * (p + g * C_load / C_in)`` where
  ``g`` is the logical effort, ``p`` the parasitic delay, and ``tau`` the
  technology time constant;
* flip-flops additionally have a clock-to-Q delay and a setup time.

The numbers follow standard logical-effort theory (Sutherland/Sproull) and
are calibrated (see DESIGN.md §6) so that the magnitudes of the resulting
area/delay match the ranges the paper reports for its 0.18 um flow; the
*relative* trends come from structure, not from the calibration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict

__all__ = [
    "CellCharacteristics",
    "CellLibrary",
    "LIBRARIES",
    "STD018",
    "get_library",
    "library_fingerprint",
    "net_load",
]


@dataclass(frozen=True)
class CellCharacteristics:
    """Area and timing characteristics of one cell type.

    Attributes
    ----------
    area:
        Cell area in library "cell units".
    input_cap:
        Input pin capacitance in units of a minimum-size inverter input.
    logical_effort:
        Logical effort ``g`` of the cell's worst input.
    parasitic_delay:
        Parasitic (intrinsic) delay ``p`` in units of ``tau``.
    clk_to_q:
        Clock-to-output delay in nanoseconds (sequential cells only).
    setup:
        Setup time in nanoseconds (sequential cells only).
    sequential:
        ``True`` for flip-flops.
    """

    area: float
    input_cap: float
    logical_effort: float
    parasitic_delay: float
    clk_to_q: float = 0.0
    setup: float = 0.0
    sequential: bool = False


@dataclass(frozen=True)
class CellLibrary:
    """A named collection of cell characteristics plus global constants.

    Frozen, and registered by name in :data:`LIBRARIES` at import: a spec
    names its library (:attr:`repro.flow.FlowSpec.library`) and each job
    key embeds the named library's :func:`library_fingerprint`, so a
    recalibration is an edit to this module, never to a live object.

    Attributes
    ----------
    name:
        Library name used in reports.
    tau:
        Technology time constant in nanoseconds; the delay of a fanout-of-1
        inverter is ``tau * (1 + 1)``.
    wire_cap_per_fanout:
        Extra capacitance (in inverter-input units) added per fan-out
        connection to model local wiring.
    cells:
        Mapping of primitive cell type name to :class:`CellCharacteristics`.
    """

    name: str
    tau: float
    wire_cap_per_fanout: float
    cells: Dict[str, CellCharacteristics] = field(default_factory=dict)

    def __contains__(self, cell_type: str) -> bool:
        return cell_type in self.cells

    def __getitem__(self, cell_type: str) -> CellCharacteristics:
        try:
            return self.cells[cell_type]
        except KeyError:
            raise KeyError(
                f"cell type {cell_type!r} not characterised in library {self.name!r}"
            ) from None

    # ------------------------------------------------------------------ area
    def area_of(self, cell_type: str) -> float:
        """Area of one instance of ``cell_type`` in cell units."""
        return self[cell_type].area

    # ---------------------------------------------------------------- timing
    def gate_delay(self, cell_type: str, load_cap: float) -> float:
        """Propagation delay in ns of ``cell_type`` driving ``load_cap``.

        Uses the logical-effort model ``tau * (p + g * h)`` with electrical
        effort ``h = load_cap / input_cap``.
        """
        char = self[cell_type]
        if char.sequential:
            # Clock-to-Q plus a load-dependent term using the same model.
            h = load_cap / char.input_cap if char.input_cap else 0.0
            return char.clk_to_q + self.tau * char.logical_effort * h
        h = load_cap / char.input_cap if char.input_cap else 0.0
        return self.tau * (char.parasitic_delay + char.logical_effort * h)

    def clk_to_q(self, cell_type: str) -> float:
        """Clock-to-Q delay of a sequential cell (0 for combinational cells)."""
        return self[cell_type].clk_to_q

    def setup(self, cell_type: str) -> float:
        """Setup time of a sequential cell (0 for combinational cells)."""
        return self[cell_type].setup

    def scaled(self, name: str, *, area_scale: float = 1.0, delay_scale: float = 1.0) -> "CellLibrary":
        """Return a derived library with every area/delay figure scaled.

        Useful for sensitivity studies (e.g. "what if flip-flops were 20 %
        smaller") without editing the base characterisation.
        """
        cells = {
            cell_type: CellCharacteristics(
                area=char.area * area_scale,
                input_cap=char.input_cap,
                logical_effort=char.logical_effort,
                parasitic_delay=char.parasitic_delay,
                clk_to_q=char.clk_to_q * delay_scale,
                setup=char.setup * delay_scale,
                sequential=char.sequential,
            )
            for cell_type, char in self.cells.items()
        }
        return CellLibrary(
            name=name,
            tau=self.tau * delay_scale,
            wire_cap_per_fanout=self.wire_cap_per_fanout,
            cells=cells,
        )


def net_load(net, library: "CellLibrary") -> float:
    """Capacitive load on ``net``: fanout pin caps plus wire capacitance.

    This is the single load model shared by static timing analysis and the
    power estimator.  Flip-flop ``CLK`` pins are excluded consistently from
    *both* the pin-capacitance sum and the per-fanout wire term (the clock
    network is not part of the signal wiring; see
    :meth:`repro.hdl.netlist.Net.data_loads`, which lint's fanout rule
    counts too).

    The pin capacitances are added left to right in load order.  ``sum()``
    would not do: from CPython 3.12 it compensates float sums, which moves
    the last bits of every delay and energy between interpreter versions.
    """
    loads = net.data_loads()
    cells = library.cells
    cap = 0.0
    for cell, _ in loads:
        char = cells.get(cell.cell_type)
        if char is None:
            char = library[cell.cell_type]  # raises the descriptive KeyError
        cap += char.input_cap
    return cap + library.wire_cap_per_fanout * len(loads)


def _comb(area: float, cap: float, g: float, p: float) -> CellCharacteristics:
    return CellCharacteristics(
        area=area, input_cap=cap, logical_effort=g, parasitic_delay=p
    )


def _flop(area: float, cap: float, clk_to_q: float, setup: float) -> CellCharacteristics:
    return CellCharacteristics(
        area=area,
        input_cap=cap,
        logical_effort=1.0,
        parasitic_delay=0.0,
        clk_to_q=clk_to_q,
        setup=setup,
        sequential=True,
    )


def _build_std018() -> CellLibrary:
    """Build the default 0.18 um-class characterisation."""
    cells: Dict[str, CellCharacteristics] = {
        # Constants and buffers.  The buffer is characterised as a mid-drive
        # cell (larger input capacitance, same logical effort) because the
        # buffering pass stands in for a sizing-aware buffer-tree synthesis.
        "TIE0": _comb(area=3.0, cap=0.0, g=0.0, p=0.0),
        "TIE1": _comb(area=3.0, cap=0.0, g=0.0, p=0.0),
        "BUF": _comb(area=9.0, cap=1.5, g=1.0, p=2.0),
        "INV": _comb(area=5.0, cap=1.0, g=1.0, p=1.0),
        # NAND / NOR (logical efforts from standard logical-effort theory).
        "NAND2": _comb(area=8.0, cap=1.2, g=4.0 / 3.0, p=2.0),
        "NAND3": _comb(area=11.0, cap=1.4, g=5.0 / 3.0, p=3.0),
        "NAND4": _comb(area=14.0, cap=1.6, g=6.0 / 3.0, p=4.0),
        "NOR2": _comb(area=8.0, cap=1.2, g=5.0 / 3.0, p=2.0),
        "NOR3": _comb(area=11.0, cap=1.4, g=7.0 / 3.0, p=3.0),
        "NOR4": _comb(area=14.0, cap=1.6, g=3.0, p=4.0),
        # AND / OR are NAND/NOR followed by an inverter internally.
        "AND2": _comb(area=10.0, cap=1.2, g=4.0 / 3.0, p=3.0),
        "AND3": _comb(area=13.0, cap=1.4, g=5.0 / 3.0, p=4.0),
        "AND4": _comb(area=16.0, cap=1.6, g=2.0, p=5.0),
        "OR2": _comb(area=10.0, cap=1.2, g=5.0 / 3.0, p=3.0),
        "OR3": _comb(area=13.0, cap=1.4, g=7.0 / 3.0, p=4.0),
        "OR4": _comb(area=16.0, cap=1.6, g=3.0, p=5.0),
        # XOR family and multiplexor.
        "XOR2": _comb(area=14.0, cap=1.8, g=4.0, p=4.0),
        "XNOR2": _comb(area=14.0, cap=1.8, g=4.0, p=4.0),
        "MUX2": _comb(area=14.0, cap=1.5, g=2.0, p=3.5),
        "AOI21": _comb(area=10.0, cap=1.4, g=2.0, p=2.5),
        "OAI21": _comb(area=10.0, cap=1.4, g=2.0, p=2.5),
        # Flip-flop family.  Enable/reset variants are larger and slightly
        # slower, as in any real library.
        "DFF": _flop(area=40.0, cap=1.5, clk_to_q=0.18, setup=0.10),
        "DFF_RST": _flop(area=45.0, cap=1.5, clk_to_q=0.19, setup=0.10),
        "DFF_SET": _flop(area=45.0, cap=1.5, clk_to_q=0.19, setup=0.10),
        "DFF_EN": _flop(area=50.0, cap=1.5, clk_to_q=0.20, setup=0.12),
        "DFF_EN_RST": _flop(area=55.0, cap=1.5, clk_to_q=0.21, setup=0.12),
        "DFF_EN_SET": _flop(area=55.0, cap=1.5, clk_to_q=0.21, setup=0.12),
    }
    # tau is chosen so a fanout-of-4 inverter delay is ~0.1 ns, the usual
    # figure quoted for a 0.18 um process at the slow corner.
    return CellLibrary(
        name="std018",
        tau=0.02,
        wire_cap_per_fanout=0.12,
        cells=cells,
    )


#: Default 0.18 um-class standard-cell library used throughout the
#: reproduction.
STD018: CellLibrary = _build_std018()

#: Named library registry used by every spec (which refers to a library by
#: name so that jobs stay serialisable).  Filled here, at import, and never
#: written afterwards.  ``std018_fast`` models a high-performance corner
#: (faster, cells up-sized); ``std018_lp`` a low-power corner (slower,
#: denser).
LIBRARIES: Dict[str, CellLibrary] = {
    "std018": STD018,
    "std018_fast": STD018.scaled("std018_fast", area_scale=1.15, delay_scale=0.8),
    "std018_lp": STD018.scaled("std018_lp", area_scale=0.9, delay_scale=1.3),
}


def get_library(name: str) -> CellLibrary:
    """Look up a registered library by name."""
    try:
        return LIBRARIES[name]
    except KeyError:
        raise KeyError(
            f"unknown cell library {name!r}; available: {', '.join(sorted(LIBRARIES))}"
        ) from None


def library_fingerprint(library: CellLibrary) -> str:
    """Short content digest of a library's characterisation.

    Campaign job keys embed this fingerprint so that recalibrating a library
    invalidates cached results evaluated against the old numbers.
    """
    payload = {
        "name": library.name,
        "tau": library.tau,
        "wire_cap_per_fanout": library.wire_cap_per_fanout,
        "cells": {
            cell_type: [
                char.area,
                char.input_cap,
                char.logical_effort,
                char.parasitic_delay,
                char.clk_to_q,
                char.setup,
                char.sequential,
            ]
            for cell_type, char in sorted(library.cells.items())
        },
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]
