"""Address decoder-decoupled memory model (Figure 2 of the paper).

The ADDM removes the built-in row/column decoders: the memory cell array is
driven directly by ``2^m`` row-select and ``2^n`` column-select lines, and all
address sequencing *and* decoding responsibility moves into the external
address generator (an FSM in general, the SRAG in particular).  The model
therefore accepts raw select vectors and checks the single-assertion safety
property the paper's conclusion insists on.
"""

from __future__ import annotations

from typing import Sequence

from oracles.cell_array import MemoryCellArray

__all__ = ["AddressDecoderDecoupledMemory"]


class AddressDecoderDecoupledMemory:
    """A ``rows x cols`` memory driven by row/column select lines."""

    def __init__(self, rows: int, cols: int):
        self.array = MemoryCellArray(rows, cols)

    @property
    def rows(self) -> int:
        """Number of row-select lines."""
        return self.array.rows

    @property
    def cols(self) -> int:
        """Number of column-select lines."""
        return self.array.cols

    @property
    def size(self) -> int:
        """Number of addressable words."""
        return self.rows * self.cols

    def read(self, row_select: Sequence[int], col_select: Sequence[int]) -> int:
        """Read the word selected by the two one-hot vectors.

        Raises :class:`~oracles.cell_array.MultipleSelectError` when the
        vectors are not exactly one-hot (no decoder exists to guarantee it).
        """
        return self.array.read_selected(row_select, col_select)

    def write(
        self, row_select: Sequence[int], col_select: Sequence[int], value: int
    ) -> None:
        """Write ``value`` to the word selected by the two one-hot vectors."""
        self.array.write_selected(row_select, col_select, value)

    def read_rowcol(self, row: int, col: int) -> int:
        """Testing convenience: read by index, bypassing the select lines."""
        return self.array.read_cell(row, col)

    def write_rowcol(self, row: int, col: int, value: int) -> None:
        """Testing convenience: write by index, bypassing the select lines."""
        self.array.write_cell(row, col, value)
