"""Address-generator architectures.

All architectures share the :class:`~repro.generators.base.AddressGeneratorDesign`
interface (elaborate / simulate / verify / synthesize):

* :class:`~repro.generators.srag_design.SragDesign` -- the paper's SRAG
  (wrapping :mod:`repro.core`).
* :class:`~repro.generators.counter_based.CounterBasedAddressGenerator` --
  the CntAG baseline of Section 6 (loop counters + decoders).
* :class:`~repro.generators.arithmetic.ArithmeticAddressGenerator` -- the
  accumulator/stride style mentioned as the other conventional approach.
* :class:`~repro.generators.fsm_based.FsmAddressGenerator` -- the symbolic
  state machine baseline of Section 3.
* :class:`~repro.generators.sfm_pointer.SfmPointerGenerator` -- Aloqeely's
  Sequential FIFO Memory pointer pair (prior art, FIFO-only).

The package root imports nothing: import each name from its defining
submodule, so a process loads only the layers it runs.
"""
