"""Affine loop-nest front end.

The address sequences the paper studies all come from affine loop nests over
image arrays (Figure 7's block-matching kernel, a separable DCT, an image
zoom).  This module provides a small explicit representation of such nests:

* :class:`Loop` -- a counted loop with start/stop/step,
* :class:`AffineExpression` -- an integer-affine combination of loop indices,
* :class:`AffineAccessPattern` -- a nest plus the row/column index expressions
  of one array reference.

An :class:`AffineAccessPattern` serves two purposes: iterating it yields the
:class:`~repro.workloads.sequences.AddressSequence` the SRAG mapper consumes,
and its loop structure is what the counter-based baseline (CntAG) is built
from -- one cascaded hardware counter per loop plus shift-and-add logic for
the affine expressions, which is the classic counter-based address-generator
style the paper benchmarks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.workloads.sequences import AddressSequence

__all__ = ["Loop", "AffineExpression", "AffineAccessPattern"]


@dataclass(frozen=True)
class Loop:
    """A counted loop ``for (var = start; var < stop; var += step)``."""

    var: str
    start: int
    stop: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"loop {self.var!r} must have a positive step")
        if self.stop < self.start:
            raise ValueError(
                f"loop {self.var!r} has stop {self.stop} before start {self.start}"
            )

    @property
    def trip_count(self) -> int:
        """Number of iterations."""
        return max(0, (self.stop - self.start + self.step - 1) // self.step)

    def values(self) -> List[int]:
        """All values the loop variable takes, in order."""
        return list(range(self.start, self.stop, self.step))


@dataclass(frozen=True)
class AffineExpression:
    """An integer-affine expression ``sum(coeff[var] * var) + constant``."""

    coefficients: Tuple[Tuple[str, int], ...] = ()
    constant: int = 0

    @classmethod
    def build(cls, coefficients: Mapping[str, int] = None, constant: int = 0) -> "AffineExpression":
        """Construct from a ``{var: coefficient}`` mapping."""
        items = tuple(sorted((coefficients or {}).items()))
        return cls(coefficients=items, constant=constant)

    def evaluate(self, indices: Mapping[str, int]) -> int:
        """Evaluate the expression for concrete loop-index values."""
        value = self.constant
        for var, coeff in self.coefficients:
            if var not in indices:
                raise KeyError(f"loop variable {var!r} not bound")
            value += coeff * indices[var]
        return value

    def variables(self) -> List[str]:
        """Loop variables the expression depends on (non-zero coefficients)."""
        return [var for var, coeff in self.coefficients if coeff != 0]

    def describe(self) -> str:
        """Human-readable rendering such as ``"2*g + k"``."""
        terms = []
        for var, coeff in self.coefficients:
            if coeff == 0:
                continue
            terms.append(var if coeff == 1 else f"{coeff}*{var}")
        if self.constant or not terms:
            terms.append(str(self.constant))
        return " + ".join(terms)


@dataclass
class AffineAccessPattern:
    """One array reference inside an affine loop nest.

    Attributes
    ----------
    name:
        Workload name.
    loops:
        The loop nest, outermost first.
    row_expr, col_expr:
        Affine expressions giving the logical row (``I0``) and column
        (``I1``) index of the reference for each iteration.
    rows, cols:
        Dimensions of the accessed array.
    """

    name: str
    loops: List[Loop]
    row_expr: AffineExpression
    col_expr: AffineExpression
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not self.loops:
            raise ValueError("an access pattern needs at least one loop")
        names = [loop.var for loop in self.loops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate loop variables: {names}")

    # ------------------------------------------------------------- iteration
    @property
    def trip_count(self) -> int:
        """Total number of accesses generated by the nest."""
        count = 1
        for loop in self.loops:
            count *= loop.trip_count
        return count

    def iterate(self) -> Iterator[Dict[str, int]]:
        """Yield loop-index bindings in execution order (innermost fastest)."""

        def recurse(depth: int, bound: Dict[str, int]) -> Iterator[Dict[str, int]]:
            if depth == len(self.loops):
                yield dict(bound)
                return
            loop = self.loops[depth]
            for value in loop.values():
                bound[loop.var] = value
                yield from recurse(depth + 1, bound)
            bound.pop(loop.var, None)

        yield from recurse(0, {})

    def indices(self) -> List[Tuple[int, int]]:
        """Logical ``(I0, I1)`` index pairs in access order."""
        return [
            (self.row_expr.evaluate(binding), self.col_expr.evaluate(binding))
            for binding in self.iterate()
        ]

    def to_sequence(self) -> AddressSequence:
        """Materialise the row-major address sequence.

        The result is memoised: materialisation walks the whole loop nest,
        every consumer (generator factories, campaign jobs, the explorer)
        needs the same sequence, and neither patterns nor sequences are
        mutated after construction.  :meth:`AddressSequence.with_layout`
        re-places it under another data organisation.
        """
        sequence = getattr(self, "_sequence", None)
        if sequence is None:
            sequence = AddressSequence.from_indices(
                self.name, self.indices(), self.rows, self.cols
            )
            self._sequence = sequence
        return sequence

    def describe(self) -> str:
        """Human-readable loop-nest summary."""
        loop_text = ", ".join(
            f"{loop.var}:{loop.start}..{loop.stop - 1}" for loop in self.loops
        )
        return (
            f"{self.name}: loops({loop_text}) -> "
            f"[{self.row_expr.describe()}][{self.col_expr.describe()}] "
            f"on {self.rows}x{self.cols}"
        )
