"""Two-hot encoding utilities.

The SRAG drives a two-dimensional memory with a *two-hot* code: exactly one
row-select line and exactly one column-select line are asserted at a time.
The paper's Section 4 argues this is the natural encoding for the ADDM --
the 2-D arrangement of the cell array implements the "decoding" for free, so
two-hot costs no delay over one-hot while using ``rows + cols`` wires instead
of ``rows * cols``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = [
    "encode_two_hot",
    "is_valid_two_hot",
    "two_hot_width",
    "one_hot_width",
]


def two_hot_width(rows: int, cols: int) -> int:
    """Number of select lines used by a two-hot code for a ``rows x cols`` array."""
    if rows < 1 or cols < 1:
        raise ValueError(f"array dimensions must be positive, got {rows}x{cols}")
    return rows + cols


def one_hot_width(rows: int, cols: int) -> int:
    """Number of select lines a flat one-hot code would need (for comparison)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"array dimensions must be positive, got {rows}x{cols}")
    return rows * cols


def encode_two_hot(row: int, col: int, rows: int, cols: int) -> Tuple[List[int], List[int]]:
    """Encode an array cell as (row-select vector, column-select vector)."""
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"cell ({row},{col}) outside {rows}x{cols} array")
    row_select = [1 if i == row else 0 for i in range(rows)]
    col_select = [1 if i == col else 0 for i in range(cols)]
    return row_select, col_select


def is_valid_two_hot(row_select: Sequence[int], col_select: Sequence[int]) -> bool:
    """True when exactly one row line and one column line are asserted."""
    return sum(1 for b in row_select if b) == 1 and sum(1 for b in col_select if b) == 1
