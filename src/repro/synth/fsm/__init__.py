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

The package root imports nothing, so loading one submodule (the FSM model,
say) does not load the QM minimiser behind :mod:`repro.synth.fsm.synthesis`.
"""
