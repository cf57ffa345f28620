"""Symbolic finite state machines and their synthesis.

Section 3 of the paper generalises the address generator for an address
decoder-decoupled memory as an FSM with one state per position in the
address sequence, and shows that handing such a machine to a generic logic
optimiser produces circuits that are both slower and far more expensive to
synthesise than a structured shift-register solution.  This package builds
that baseline:

* :class:`~repro.synth.fsm.fsm.FiniteStateMachine` -- a Moore machine with a
  single ``next`` advance input, defined by its transition list and per-state
  output vectors.
* :mod:`repro.synth.fsm.encoding` -- binary, gray and one-hot state
  encodings.
* :func:`~repro.synth.fsm.synthesis.synthesize_fsm` -- elaborate the encoded
  machine into flip-flops plus minimised two-level next-state and output
  logic, returning the netlist together with effort statistics.
"""

from repro.synth.fsm.encoding import ENCODINGS, StateEncoding, encoding_by_name
from repro.synth.fsm.fsm import FiniteStateMachine
from repro.synth.fsm.synthesis import FsmSynthesisResult, synthesize_fsm

__all__ = [
    "FiniteStateMachine",
    "StateEncoding",
    "ENCODINGS",
    "encoding_by_name",
    "FsmSynthesisResult",
    "synthesize_fsm",
]
