"""Complete two-hot SRAG address generator for an ADDM array.

The full generator of the paper's Section 4 is the composition of two
identical one-dimensional SRAGs: a row SRAG driving the ``2^m`` row-select
lines and a column SRAG driving the ``2^n`` column-select lines, both fed by
the same ``clk`` / ``next`` / ``reset`` inputs.  Each dimension is mapped
independently by the SRAdGen procedure on its own RowAS / ColAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.mapper import map_address_sequence
from repro.core.mapping_params import SragMapping
from repro.core.srag import SragPorts, build_srag
from repro.hdl.netlist import Netlist, sanitise_name
from repro.workloads.sequences import AddressSequence

__all__ = ["SragAddressGenerator"]


@dataclass
class SragAddressGenerator:
    """A mapped, elaborated two-hot SRAG for one address sequence.

    Use :meth:`from_sequence` to run the mapping procedure and elaborate the
    netlist in one step.  The mapping procedure already proves that each
    dimension's behavioural model regenerates its sequence; the gate-level
    check of the netlist is
    :meth:`repro.generators.srag_design.SragDesign.verify`.

    Attributes
    ----------
    sequence:
        The 2-D address sequence the generator implements.
    row_mapping, col_mapping:
        SRAdGen mapping parameters of each dimension.
    netlist:
        The elaborated structural netlist (inputs ``clk``, ``next``,
        ``reset``; outputs ``rs_<i>`` and ``cs_<j>``).
    row_ports, col_ports:
        Internal port bundles of the two one-dimensional SRAGs.
    """

    sequence: AddressSequence
    row_mapping: SragMapping
    col_mapping: SragMapping
    netlist: Netlist
    row_ports: SragPorts
    col_ports: SragPorts

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_sequence(
        cls, sequence: AddressSequence, *, name: Optional[str] = None
    ) -> "SragAddressGenerator":
        """Map ``sequence`` and elaborate the complete two-hot generator.

        Raises :class:`~repro.core.mapping_params.MappingError` when either
        dimension violates an SRAG restriction.
        """
        row_mapping, col_mapping = map_address_sequence(sequence)
        netlist = Netlist(name or sanitise_name(f"srag_{sequence.name}"))
        clk = netlist.add_input("clk")
        next_signal = netlist.add_input("next")
        reset = netlist.add_input("reset")
        row_ports = build_srag(netlist, row_mapping, clk, next_signal, reset, prefix="row")
        col_ports = build_srag(netlist, col_mapping, clk, next_signal, reset, prefix="col")
        netlist.add_output_bus("rs", row_ports.select_lines)
        netlist.add_output_bus("cs", col_ports.select_lines)
        return cls(
            sequence=sequence,
            row_mapping=row_mapping,
            col_mapping=col_mapping,
            netlist=netlist,
            row_ports=row_ports,
            col_ports=col_ports,
        )

    # ---------------------------------------------------------------- queries
    @property
    def rows(self) -> int:
        """Number of row-select lines."""
        return self.sequence.rows

    @property
    def cols(self) -> int:
        """Number of column-select lines."""
        return self.sequence.cols
