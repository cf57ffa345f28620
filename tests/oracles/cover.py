"""SAT oracle for two-level covers: does an SOP equal a ``TruthTable``?

``verify_cover`` is the correctness contract the ROADMAP's heuristic
(Espresso-style) minimizer will be held to: above the exact-QM input ceiling
there is no exact cover to diff against, so exactness must be *proved*, not
compared.  The proof is two UNSAT queries over the input variables:

* **missed minterm** -- is there an assignment in the on-set that no cube
  covers?  (``on_set ⊆ cover``)
* **off-set overlap** -- is there an assignment in the off-set that some
  cube covers?  (``cover ⊆ on_set ∪ dc_set``)

Both unsatisfiable means the cover is exact up to don't-cares -- precisely
the freedom a minimizer is allowed.  Any SAT model is decoded and checked
directly against the table/cubes in Python before being reported, so a
solver bug cannot produce a false rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.synth.logic.minimize import Implicant
from repro.synth.logic.truth_table import TruthTable
from repro.verify.sat import SatSolver

__all__ = ["CoverVerdict", "verify_cover"]


class CoverOracleError(Exception):
    """Internal solver/decode inconsistency (never a property of the cover)."""


@dataclass(frozen=True)
class CoverVerdict:
    """Result of :func:`verify_cover`.

    ``exact`` is the verdict.  On rejection, ``missed_minterm`` is an
    on-set minterm no cube covers and/or ``overlap_minterm`` is an off-set
    minterm some cube covers (each ``None`` when that direction holds).
    """

    exact: bool
    missed_minterm: Optional[int] = None
    overlap_minterm: Optional[int] = None

    def describe(self) -> str:
        if self.exact:
            return "cover exactly matches the table"
        parts = []
        if self.missed_minterm is not None:
            parts.append(f"on-set minterm {self.missed_minterm} is not covered")
        if self.overlap_minterm is not None:
            parts.append(
                f"off-set minterm {self.overlap_minterm} is wrongly covered"
            )
        return "; ".join(parts)


def _exclude_clause(variables: Sequence[int], minterm: int) -> List[int]:
    """A clause forcing the input vector to differ from ``minterm``."""
    return [
        -variables[i] if (minterm >> i) & 1 else variables[i]
        for i in range(len(variables))
    ]


def _decode(solver: SatSolver, variables: Sequence[int]) -> int:
    model = solver.model
    value = 0
    for i, var in enumerate(variables):
        if model.get(var, False):
            value |= 1 << i
    return value


def _find_missed(table: TruthTable, implicants: Sequence[Implicant]) -> Optional[int]:
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(table.num_inputs)]
    for minterm in sorted(table.off_set | table.dc_set):
        solver.add_clause(_exclude_clause(variables, minterm))
    for imp in implicants:
        # NOT cube: at least one literal of the cube is violated.  An empty
        # cube (constant-1 term) yields the empty clause: nothing is missed.
        solver.add_clause(
            [
                -variables[i] if positive else variables[i]
                for i, positive in imp.literals()
            ]
        )
    if solver.solve() is not True:
        return None
    minterm = _decode(solver, variables)
    if minterm not in table.on_set or any(imp.covers(minterm) for imp in implicants):
        raise CoverOracleError(
            f"missed-minterm model {minterm} fails the direct check"
        )
    return minterm


def _find_overlap(table: TruthTable, implicants: Sequence[Implicant]) -> Optional[int]:
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(table.num_inputs)]
    for minterm in sorted(table.on_set | table.dc_set):
        solver.add_clause(_exclude_clause(variables, minterm))
    selectors = []
    for imp in implicants:
        selector = solver.new_var()
        for i, positive in imp.literals():
            solver.add_clause(
                [-selector, variables[i] if positive else -variables[i]]
            )
        selectors.append(selector)
    # cover(x) = 1: some cube is selected (and, via the clauses above,
    # actually satisfied).  No implicants -> empty clause -> no overlap.
    solver.add_clause(selectors)
    if solver.solve() is not True:
        return None
    minterm = _decode(solver, variables)
    if minterm not in table.off_set or not any(
        imp.covers(minterm) for imp in implicants
    ):
        raise CoverOracleError(
            f"overlap model {minterm} fails the direct check"
        )
    return minterm


def verify_cover(
    table: TruthTable, implicants: Sequence[Implicant]
) -> CoverVerdict:
    """Prove (or refute, with witnesses) that the SOP equals the table.

    The cover is *exact* when it contains every on-set minterm and nothing
    from the off-set; don't-care minterms may land on either side.
    """
    for imp in implicants:
        if imp.num_inputs != table.num_inputs:
            raise ValueError(
                f"implicant width {imp.num_inputs} does not match "
                f"table width {table.num_inputs}"
            )
    missed = _find_missed(table, implicants)
    overlap = _find_overlap(table, implicants)
    return CoverVerdict(
        exact=missed is None and overlap is None,
        missed_minterm=missed,
        overlap_minterm=overlap,
    )
