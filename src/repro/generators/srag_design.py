"""SRAG wrapped in the common address-generator interface.

:class:`SragDesign` adapts :class:`~repro.core.addm_generator.SragAddressGenerator`
to :class:`~repro.generators.base.AddressGeneratorDesign` so the design-space
explorer and the benchmark harnesses can compare the paper's architecture
against the baselines through one interface.
"""

from __future__ import annotations

from typing import Optional

from repro.core.addm_generator import SragAddressGenerator
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import Netlist, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.workloads.sequences import AddressSequence

__all__ = ["SragDesign"]


class SragDesign(AddressGeneratorDesign):
    """The paper's two-hot SRAG as an :class:`AddressGeneratorDesign`."""

    style = "SRAG"

    def __init__(self, sequence: AddressSequence, *, name: Optional[str] = None):
        super().__init__(sequence, name=sanitise_name(name or f"srag_{sequence.name}"))
        # Mapping happens eagerly so that unmappable sequences fail fast with
        # a MappingError, mirroring how the SRAdGen tool behaves.  It also
        # elaborates the netlist once, which becomes the cached netlist.
        self._generator = SragAddressGenerator.from_sequence(sequence, name=self.name)
        self._netlist = self._generator.netlist
        self.address_encoding = AddressEncoding.two_hot(sequence.rows, sequence.cols)

    @property
    def generator(self) -> SragAddressGenerator:
        """The underlying mapped generator (mappings, ports, netlist)."""
        return self._generator

    def elaborate(self) -> Netlist:
        # Rebuilds the structure from the stored mappings; mapping runs once
        # per design, in the constructor.
        return self._generator.elaborate()
