"""Area accounting.

Sums standard-cell areas over a netlist and breaks the total down by cell
type and by sequential/combinational contribution, mirroring the "area in
cell units" figures of the paper (Figures 4 and 10, Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hdl.netlist import Netlist
from repro.hdl.primitives import SEQUENTIAL
from repro.synth.cell_library import CellLibrary, STD018

__all__ = ["AreaReport", "area_report"]


@dataclass
class AreaReport:
    """Area breakdown of one netlist.

    Attributes
    ----------
    total:
        Total area in cell units.
    sequential:
        Area contributed by flip-flops.
    combinational:
        Area contributed by all other cells.
    by_cell_type:
        Area per cell type.
    cell_counts:
        Instance count per cell type.
    """

    total: float
    sequential: float
    combinational: float
    by_cell_type: Dict[str, float] = field(default_factory=dict)
    cell_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def flip_flop_count(self) -> int:
        """Number of flip-flop instances."""
        return sum(
            count
            for cell_type, count in self.cell_counts.items()
            if cell_type.startswith("DFF")
        )

    def describe(self) -> str:
        """Multi-line human-readable area report."""
        lines = [
            f"total area: {self.total:.1f} cell units "
            f"(sequential {self.sequential:.1f}, combinational {self.combinational:.1f})"
        ]
        for cell_type in sorted(self.by_cell_type, key=self.by_cell_type.get, reverse=True):
            lines.append(
                f"  {cell_type:<12} x{self.cell_counts[cell_type]:<6d} "
                f"{self.by_cell_type[cell_type]:10.1f}"
            )
        return "\n".join(lines)


def area_report(netlist: Netlist, library: CellLibrary = STD018) -> AreaReport:
    """Compute the :class:`AreaReport` of ``netlist`` against ``library``."""
    by_type: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    sequential = 0.0
    combinational = 0.0
    for cell in netlist.cells.values():
        area = library.area_of(cell.cell_type)
        by_type[cell.cell_type] = by_type.get(cell.cell_type, 0.0) + area
        counts[cell.cell_type] = counts.get(cell.cell_type, 0) + 1
        if cell.cell_type in SEQUENTIAL:
            sequential += area
        else:
            combinational += area
    return AreaReport(
        total=sequential + combinational,
        sequential=sequential,
        combinational=combinational,
        by_cell_type=by_type,
        cell_counts=counts,
    )
