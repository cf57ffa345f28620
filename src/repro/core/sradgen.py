"""SRAdGen -- the end-to-end tool flow of the paper's Section 5.

The paper's SRAdGen tool "accepts a sequence of one-dimensional addresses
and, if mapping is successful, produces synthesisable VHDL code describing
the corresponding SRAG".  :func:`generate` reproduces that flow on top of the
library: sequence in, mapping parameters + structural netlist + HDL text +
synthesis report out.  The command-line front end in :mod:`repro.cli` is a
thin wrapper around this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.addm_generator import SragAddressGenerator
from repro.core.mapping_params import SragMapping
from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.generators.srag_design import SragDesign
from repro.hdl.emit import emit_verilog, emit_vhdl
from repro.synth.report import SynthesisResult
from repro.workloads.sequences import AddressSequence

__all__ = ["SRAdGenResult", "generate"]


@dataclass
class SRAdGenResult:
    """Everything SRAdGen produces for one address sequence.

    Attributes
    ----------
    generator:
        The mapped and elaborated two-hot SRAG.
    row_mapping, col_mapping:
        Mapping parameters of each dimension (the Table 2 quantities).
    vhdl, verilog:
        Generated HDL text (``None`` unless requested).
    synthesis:
        Area/delay report (``None`` unless requested).  Synthesis rewrites
        the design's copy of the generator's netlist, so the emitted HDL and
        the generator's netlist are unaffected by optimization and buffer
        insertion.
    """

    generator: SragAddressGenerator
    row_mapping: SragMapping
    col_mapping: SragMapping
    vhdl: Optional[str] = None
    verilog: Optional[str] = None
    synthesis: Optional[SynthesisResult] = None

    def describe(self) -> str:
        """Human-readable summary (mapping parameters plus synthesis figures)."""
        lines = [
            f"SRAdGen result for {self.generator.sequence.name!r} "
            f"({self.generator.rows}x{self.generator.cols} array, "
            f"{self.generator.sequence.length} accesses)",
            "",
            "row address sequence mapping:",
            self.row_mapping.describe(),
            "",
            "column address sequence mapping:",
            self.col_mapping.describe(),
        ]
        if self.synthesis is not None:
            lines += ["", self.synthesis.summary()]
        return "\n".join(lines)


def generate(
    sequence: AddressSequence,
    *,
    emit_vhdl_text: bool = True,
    emit_verilog_text: bool = False,
    synthesize: bool = False,
    spec: FlowSpec = DEFAULT_SPEC,
) -> SRAdGenResult:
    """Run the complete SRAdGen flow on ``sequence``.

    Before emitting anything, the elaborated netlist is simulated at gate
    level (:meth:`SragDesign.verify`) and its two-hot select lines must
    regenerate the input sequence; this check always runs.

    Parameters
    ----------
    sequence:
        The 2-D address sequence to implement.
    emit_vhdl_text, emit_verilog_text:
        Which HDL back ends to run.
    synthesize:
        Also run the synthesis flow (optimization + buffering + timing +
        area) through :meth:`SragDesign.synthesize`.
    spec:
        Flow configuration (:class:`repro.flow.FlowSpec`) for the synthesis
        step: cell library and logic-optimization effort.
        Defaults to an all-defaults spec.  The netlist and HDL entity are
        named ``srag_<sequence name>`` (made a safe identifier).

    Raises
    ------
    MappingError
        If the sequence violates an SRAG restriction.
    RuntimeError
        If verification fails (which would indicate a library bug rather
        than an unmappable sequence).
    """
    design = SragDesign(sequence)
    if not design.verify():
        raise RuntimeError(
            f"structural verification failed for sequence {sequence.name!r}"
        )
    generator = design.generator
    return SRAdGenResult(
        generator=generator,
        row_mapping=generator.row_mapping,
        col_mapping=generator.col_mapping,
        vhdl=emit_vhdl(generator.netlist) if emit_vhdl_text else None,
        verilog=emit_verilog(generator.netlist) if emit_verilog_text else None,
        synthesis=design.synthesize(spec) if synthesize else None,
    )
