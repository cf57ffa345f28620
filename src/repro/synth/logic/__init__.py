"""Two-level logic synthesis.

The symbolic-FSM baseline of the paper's Section 3 relies on a logic
optimiser turning state-transition tables into gates.  This package provides
that machinery:

* :class:`~repro.synth.logic.truth_table.TruthTable` -- on-set / don't-care
  description of a single-output Boolean function.
* :func:`~repro.synth.logic.minimize.minimize` -- exact Quine-McCluskey prime
  implicant generation with an essential-plus-greedy cover (falling back to a
  direct cube list for very wide functions).
* :func:`~repro.synth.logic.synthesize.sop_to_netlist` -- map a sum-of-products
  cover onto AND/OR gate trees inside a netlist.

The package root re-exports nothing: import names from their submodules.
"""
