"""Formal verification: SAT core, equivalence checking, cover oracle.

Public surface:

* :class:`repro.verify.sat.SatSolver` -- deterministic stdlib CDCL solver.
* :func:`repro.verify.cec.check_equivalence` -- register-correspondence
  induction with a BMC fallback, one pipeline for every netlist pair, with
  simulator-replayed counterexamples.
* :func:`repro.verify.cover.verify_cover` -- SAT proof that an SOP cover
  equals a :class:`~repro.synth.logic.truth_table.TruthTable` exactly.
"""

from .cec import CecResult, Counterexample, VerificationError, check_equivalence
from .cover import CoverVerdict, verify_cover
from .sat import SatSolver

__all__ = [
    "CecResult",
    "Counterexample",
    "VerificationError",
    "check_equivalence",
    "CoverVerdict",
    "verify_cover",
    "SatSolver",
]
