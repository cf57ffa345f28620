"""Common interface for address-generator designs.

Every architecture the library can build -- the SRAG, the counter-based
CntAG, the arithmetic-based generator, the symbolic-FSM generator and the
SFM pointer pair -- is wrapped in an :class:`AddressGeneratorDesign` so the
experiment harnesses and the design-space explorer can treat them uniformly:
elaborate, verify by simulation, synthesise, and compare area/delay.  A
design states only how its output ports encode the address; the one
gate-level sampling loop (:func:`repro.hdl.simulator.sample_addresses`)
does the simulating for every architecture.  The synthesis flow receives
the netlist and the design's name, nothing else: every figure and
diagnostic it reports is read off the netlist.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import AddressEncoding, sample_addresses
from repro.obs import span
from repro.synth.flow import _synthesize
from repro.synth.report import SynthesisResult
from repro.workloads.sequences import AddressSequence

__all__ = ["AddressGeneratorDesign"]


class AddressGeneratorDesign(abc.ABC):
    """Abstract base for all address-generator architectures.

    Subclasses implement :meth:`elaborate` (build a fresh netlist) and set
    :attr:`address_encoding` (how that netlist's output ports spell the
    linear address).  The base class provides caching, gate-level
    simulation, verification and synthesis on top of those two.
    """

    #: Short architecture label used in reports (e.g. ``"SRAG"``, ``"CntAG"``).
    style: str = "generic"

    #: Output ports carrying the address; set by each subclass's constructor.
    address_encoding: AddressEncoding

    def __init__(self, sequence: AddressSequence, name: str):
        self.sequence = sequence
        self.name = name
        self._netlist: Optional[Netlist] = None

    # ------------------------------------------------------------- interface
    @abc.abstractmethod
    def elaborate(self) -> Netlist:
        """Build and return a fresh structural netlist for this design."""

    # ------------------------------------------------------------ conveniences
    @property
    def netlist(self) -> Netlist:
        """The elaborated netlist (cached after the first elaboration)."""
        if self._netlist is None:
            self._netlist = self.elaborate()
        return self._netlist

    def invalidate(self) -> None:
        """Drop the cached netlist so the next access re-elaborates."""
        self._netlist = None

    def simulate(self, cycles: Optional[int] = None) -> List[int]:
        """Linear addresses the netlist emits over ``cycles`` cycles.

        Defaults to one pass over the target sequence.
        """
        steps = cycles if cycles is not None else self.sequence.length
        return sample_addresses(self.netlist, self.address_encoding, steps)

    def verify(self) -> bool:
        """Check one simulated pass against the target sequence."""
        return self.sequence.matches(self.simulate())

    def synthesize(self, spec: FlowSpec = DEFAULT_SPEC) -> SynthesisResult:
        """Run the synthesis flow on the design's netlist.

        The flow is configured by ``spec`` (:class:`repro.flow.FlowSpec`;
        defaults to an all-defaults spec).  The design hands its netlist to
        the flow, which rewrites it (the result's ``netlist``), and drops its
        cache, so the next access or synthesis run re-elaborates the raw
        design.  Only ``spec.verify`` clones it, as the golden model for CEC.
        """
        if not isinstance(spec, FlowSpec):
            raise TypeError(
                f"{type(self).__name__}.synthesize: spec must be a FlowSpec, "
                f"got {spec!r}"
            )
        # Elaboration ("logic synthesis": building the structural netlist,
        # including any FSM minimisation) is attributed as its own flow
        # stage; a netlist cached by an earlier simulate() or verify() makes
        # it near-zero.
        with span("flow.elaborate"):
            netlist = self.netlist
        self.invalidate()
        return _synthesize(
            netlist,
            spec=spec,
            golden=netlist.clone() if spec.verify else None,
            name=self.name,
        )
