"""Conventional RAM model (Figure 1 of the paper).

A RAM with built-in row and column decoders: the interface is a binary
address of ``m + n`` bits which is split into a row address (upper ``m``
bits) and a column address (lower ``n`` bits) and decoded internally.  This
is the memory model assumed by most memory-synthesis work the paper surveys,
and the one the CntAG baseline targets.
"""

from __future__ import annotations

from typing import Tuple

from oracles.cell_array import MemoryCellArray

__all__ = ["ConventionalRAM"]


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


class ConventionalRAM:
    """A ``2^m x 2^n`` RAM accessed through a binary address port.

    Parameters
    ----------
    rows, cols:
        Array dimensions; both must be powers of two because the built-in
        decoders decode fixed-width binary row/column addresses.
    """

    def __init__(self, rows: int, cols: int):
        if not (_is_power_of_two(rows) and _is_power_of_two(cols)):
            raise ValueError(
                f"conventional RAM dimensions must be powers of two, got {rows}x{cols}"
            )
        self.array = MemoryCellArray(rows, cols)
        self.row_address_width = (rows - 1).bit_length() if rows > 1 else 1
        self.col_address_width = (cols - 1).bit_length() if cols > 1 else 1

    @property
    def rows(self) -> int:
        """Number of rows (``2^m``)."""
        return self.array.rows

    @property
    def cols(self) -> int:
        """Number of columns (``2^n``)."""
        return self.array.cols

    @property
    def address_width(self) -> int:
        """Total binary address width ``m + n``."""
        return self.row_address_width + self.col_address_width

    @property
    def size(self) -> int:
        """Number of addressable words."""
        return self.rows * self.cols

    def split_address(self, address: int) -> Tuple[int, int]:
        """Split a linear binary address into (row address, column address).

        The column address occupies the low-order bits, matching the paper's
        row-major linear address ``LA = I0 * img_width + I1``.
        """
        if not (0 <= address < self.size):
            raise IndexError(f"address {address} outside 0..{self.size - 1}")
        return address >> self.col_address_width, address & (self.cols - 1)

    def read(self, address: int) -> int:
        """Read the word at the binary ``address`` (decoders are internal)."""
        row, col = self.split_address(address)
        return self.array.read_cell(row, col)

    def write(self, address: int, value: int) -> None:
        """Write ``value`` at the binary ``address``."""
        row, col = self.split_address(address)
        self.array.write_cell(row, col, value)
