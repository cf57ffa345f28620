"""Symbolic-FSM address generator (the Section 3 baseline).

Wraps :mod:`repro.synth.fsm` in the common :class:`AddressGeneratorDesign`
interface: one FSM state per sequence position, synthesised with a chosen
state encoding, producing either one-hot select lines (for a one-dimensional
ADDM row, as in Figures 3-4) or two-hot row/column select lines (for a 2-D
ADDM).
"""

from __future__ import annotations

from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import Netlist, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.synth.fsm.fsm import FiniteStateMachine
from repro.synth.fsm.synthesis import synthesize_fsm
from repro.workloads.sequences import AddressSequence

__all__ = ["FsmAddressGenerator"]

_OUTPUT_STYLES = ("select_lines", "two_hot")


class FsmAddressGenerator(AddressGeneratorDesign):
    """Address generator synthesised from a symbolic state machine."""

    style = "FSM"

    def __init__(
        self,
        sequence: AddressSequence,
        *,
        encoding: str = "binary",
        output_style: str = "select_lines",
    ):
        if output_style not in _OUTPUT_STYLES:
            raise ValueError(
                f"output_style must be one of {_OUTPUT_STYLES}, got {output_style!r}"
            )
        super().__init__(sequence, f"fsm_{encoding}_{sequence.name}")
        self.encoding = encoding
        self.output_style = output_style
        if output_style == "select_lines":
            self.address_encoding = AddressEncoding(
                (("sel", sequence.rows * sequence.cols),), onehot=True
            )
        else:
            self.address_encoding = AddressEncoding.two_hot(sequence.rows, sequence.cols)

    # ------------------------------------------------------------------- FSM
    def build_fsm(self) -> FiniteStateMachine:
        """Construct the symbolic machine for the target sequence."""
        if self.output_style == "select_lines":
            return FiniteStateMachine.from_select_sequence(
                self.sequence.linear,
                num_lines=self.sequence.rows * self.sequence.cols,
                name=sanitise_name(self.name),
            )
        return FiniteStateMachine.from_two_hot_sequence(
            self.sequence.row_sequence,
            self.sequence.col_sequence,
            self.sequence.rows,
            self.sequence.cols,
            name=sanitise_name(self.name),
        )

    # -------------------------------------------------------------- interface
    def elaborate(self) -> Netlist:
        # Re-synthesise each time so callers always receive an unmodified
        # netlist.
        return synthesize_fsm(
            self.build_fsm(), encoding=self.encoding, name=sanitise_name(self.name)
        ).netlist
