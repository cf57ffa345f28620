"""SRAG wrapped in the common address-generator interface.

:class:`SragDesign` adapts :class:`~repro.core.addm_generator.SragAddressGenerator`
to :class:`~repro.generators.base.AddressGeneratorDesign` so the design-space
explorer and the benchmark harnesses can compare the paper's architecture
against the baselines through one interface.
"""

from __future__ import annotations

from repro.core.addm_generator import SragAddressGenerator
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import Netlist, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.workloads.sequences import AddressSequence

__all__ = ["SragDesign"]


class SragDesign(AddressGeneratorDesign):
    """The paper's two-hot SRAG as an :class:`AddressGeneratorDesign`.

    The generator keeps the netlist its mapping elaborated; the design's
    netlist is a copy of it.  Synthesis rewrites the design's copy, so
    :attr:`generator` stays pre-flow and the sequence is mapped once.
    """

    style = "SRAG"

    def __init__(self, sequence: AddressSequence):
        super().__init__(sequence, sanitise_name(f"srag_{sequence.name}"))
        # Mapping happens eagerly so that unmappable sequences fail fast with
        # a MappingError, mirroring how the SRAdGen tool behaves.
        self._generator = SragAddressGenerator.from_sequence(sequence, name=self.name)
        self.address_encoding = AddressEncoding.two_hot(sequence.rows, sequence.cols)

    @property
    def generator(self) -> SragAddressGenerator:
        """The underlying mapped generator (mappings, ports, netlist)."""
        return self._generator

    def elaborate(self) -> Netlist:
        return self._generator.netlist.clone()
