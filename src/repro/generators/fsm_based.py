"""Symbolic-FSM address generator (the Section 3 baseline).

Wraps :mod:`repro.synth.fsm` in the common :class:`AddressGeneratorDesign`
interface: one FSM state per sequence position, synthesised with a chosen
state encoding, producing either one-hot select lines (for a one-dimensional
ADDM row, as in Figures 3-4), two-hot row/column select lines (for a 2-D
ADDM) or binary addresses (for a conventional RAM).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import Netlist, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.synth.fsm import FiniteStateMachine, FsmSynthesisResult, synthesize_fsm
from repro.workloads.sequences import AddressSequence

__all__ = ["FsmAddressGenerator"]

_OUTPUT_STYLES = ("select_lines", "two_hot", "binary")


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
        self._synthesis_result: Optional[FsmSynthesisResult] = None
        size = sequence.rows * sequence.cols
        self.address_width = max(1, (size - 1).bit_length())
        self.address_encoding = {
            "select_lines": AddressEncoding((("sel", size),), onehot=True),
            "two_hot": AddressEncoding.two_hot(sequence.rows, sequence.cols),
            "binary": AddressEncoding((("addr", self.address_width),), onehot=False),
        }[output_style]

    # ------------------------------------------------------------------- FSM
    def build_fsm(self) -> FiniteStateMachine:
        """Construct the symbolic machine for the target sequence."""
        if self.output_style == "select_lines":
            return FiniteStateMachine.from_select_sequence(
                self.sequence.linear,
                num_lines=self.sequence.rows * self.sequence.cols,
                name=sanitise_name(self.name),
            )
        if self.output_style == "two_hot":
            return FiniteStateMachine.from_two_hot_sequence(
                self.sequence.row_sequence,
                self.sequence.col_sequence,
                self.sequence.rows,
                self.sequence.cols,
                name=sanitise_name(self.name),
            )
        return FiniteStateMachine.from_binary_sequence(
            self.sequence.linear,
            address_width=self.address_width,
            name=sanitise_name(self.name),
        )

    def lint_context(self) -> Dict[str, object]:
        """Expose the symbolic machine so ``design.fsm-unreachable`` can run."""
        return {"fsm": self.build_fsm()}

    @property
    def fsm_synthesis(self) -> FsmSynthesisResult:
        """The FSM synthesis result (elaborates on first use)."""
        if self._synthesis_result is None:
            self._synthesis_result = synthesize_fsm(
                self.build_fsm(), encoding=self.encoding, name=sanitise_name(self.name)
            )
        return self._synthesis_result

    # -------------------------------------------------------------- interface
    def elaborate(self) -> Netlist:
        # Re-synthesise each time so callers always receive an unmodified
        # netlist.  The first result is kept for its stats; its netlist is
        # the one synthesize() hands to the flow.
        result = synthesize_fsm(
            self.build_fsm(), encoding=self.encoding, name=sanitise_name(self.name)
        )
        if self._synthesis_result is None:
            self._synthesis_result = result
        return result.netlist
