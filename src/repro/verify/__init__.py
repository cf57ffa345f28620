"""Formal verification: a SAT core under netlist equivalence checking.

* :class:`repro.verify.sat.SatSolver` -- deterministic stdlib CDCL solver.
* :mod:`repro.verify.cnf` -- Tseitin encoding of netlists, gate clauses
  derived from the primitive truth tables.
* :func:`repro.verify.cec.check_equivalence` -- register-correspondence
  induction with a BMC fallback, one pipeline for every netlist pair, with
  simulator-replayed counterexamples (``sradgen --verify``).

The package root imports nothing: import each name from its defining
submodule, so ``--verify`` loads only the equivalence checker.
"""
