"""Address sequence abstraction.

Everything the paper studies starts from an *address sequence*: the ordered
list of memory words an application touches.  :class:`AddressSequence` keeps
the linear view (``LinAS``), the row/column views (``RowAS`` / ``ColAS``) and
the physical array shape together, and provides the small sequence algebra
(consecutive-repetition counting, reduction, uniqueness) that both the SRAG
mapping procedure of Section 5 and the analysis code rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.memory.layout import DataLayout, ROW_MAJOR

__all__ = ["AddressSequence", "consecutive_repetitions", "collapse_repetitions"]


def consecutive_repetitions(sequence: Sequence[int]) -> List[int]:
    """Length of each run of consecutive identical values.

    This is the division-count set ``D`` of the paper's mapping procedure:
    ``consecutive_repetitions([0,0,1,1,0,0]) == [2, 2, 2]``.
    """
    runs: List[int] = []
    previous = None
    for position, value in enumerate(sequence):
        if position > 0 and value == previous:
            runs[-1] += 1
        else:
            runs.append(1)
        previous = value
    return runs


def collapse_repetitions(sequence: Sequence[int]) -> List[int]:
    """Collapse runs of consecutive identical values to a single element.

    This is the reduced address sequence ``R`` of the mapping procedure:
    ``collapse_repetitions([0,0,1,1,0,0]) == [0, 1, 0]``.
    """
    reduced: List[int] = []
    for value in sequence:
        if not reduced or reduced[-1] != value:
            reduced.append(value)
    return reduced


@dataclass
class AddressSequence:
    """An ordered sequence of accesses to a ``rows x cols`` memory array.

    Attributes
    ----------
    name:
        Workload name (used in reports and benchmark tables).
    linear:
        Linear address sequence (``LinAS``); ``linear[k] = row*cols + col``.
    rows, cols:
        Physical array dimensions (``img_height`` x ``img_width`` in the
        paper's examples).
    layout:
        The data organisation that produced the linear addresses; recorded so
        derived sequences can be regenerated under a different organisation.
    """

    name: str
    linear: List[int]
    rows: int
    cols: int
    layout: DataLayout = field(default_factory=lambda: ROW_MAJOR)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array dimensions must be positive, got {self.rows}x{self.cols}")
        size = self.rows * self.cols
        for address in self.linear:
            if not (0 <= address < size):
                raise ValueError(
                    f"linear address {address} outside 0..{size - 1} "
                    f"({self.rows}x{self.cols} array)"
                )

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_linear(
        cls,
        name: str,
        addresses: Iterable[int],
        rows: int,
        cols: int,
    ) -> "AddressSequence":
        """Build from a linear address list."""
        return cls(name=name, linear=list(addresses), rows=rows, cols=cols)

    @classmethod
    def from_rowcol(
        cls,
        name: str,
        row_sequence: Sequence[int],
        col_sequence: Sequence[int],
        rows: int,
        cols: int,
    ) -> "AddressSequence":
        """Build from parallel row and column address sequences."""
        if len(row_sequence) != len(col_sequence):
            raise ValueError(
                f"row sequence length {len(row_sequence)} != "
                f"column sequence length {len(col_sequence)}"
            )
        linear = [r * cols + c for r, c in zip(row_sequence, col_sequence)]
        return cls(name=name, linear=linear, rows=rows, cols=cols)

    @classmethod
    def from_indices(
        cls,
        name: str,
        indices: Iterable[Tuple[int, int]],
        rows: int,
        cols: int,
        layout: DataLayout = ROW_MAJOR,
    ) -> "AddressSequence":
        """Build from logical 2-D array indices using ``layout``.

        The logical index ``(i0, i1)`` is first placed in the physical array
        by the layout (row-major by default, as the paper assumes) and the
        linear address follows the physical placement.
        """
        linear = [layout.linear(i0, i1, rows, cols) for i0, i1 in indices]
        return cls(name=name, linear=linear, rows=rows, cols=cols, layout=layout)

    # ---------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.linear)

    def __iter__(self) -> Iterator[int]:
        return iter(self.linear)

    def __getitem__(self, index: int) -> int:
        return self.linear[index]

    @property
    def length(self) -> int:
        """Number of accesses in the sequence."""
        return len(self.linear)

    @property
    def row_sequence(self) -> List[int]:
        """The row address sequence (``RowAS``)."""
        return [address // self.cols for address in self.linear]

    @property
    def col_sequence(self) -> List[int]:
        """The column address sequence (``ColAS``)."""
        return [address % self.cols for address in self.linear]

    # -------------------------------------------------------------- analysis
    def unique_addresses(self) -> List[int]:
        """Distinct linear addresses in first-appearance order."""
        seen = set()
        unique: List[int] = []
        for address in self.linear:
            if address not in seen:
                seen.add(address)
                unique.append(address)
        return unique

    def is_incremental(self) -> bool:
        """True when the sequence is ``0, 1, 2, ..., length-1`` (FIFO order)."""
        return self.linear == list(range(len(self.linear)))

    def matches(self, produced: Sequence[int]) -> bool:
        """True when ``produced`` is this sequence, repeated cyclically."""
        return list(produced) == [
            self.linear[i % self.length] for i in range(len(produced))
        ]

    def reduced(self) -> List[int]:
        """Linear sequence with consecutive repetitions collapsed."""
        return collapse_repetitions(self.linear)

    def with_layout(self, layout: DataLayout) -> "AddressSequence":
        """Re-map the sequence under a different data organisation.

        The logical index of each access is recovered by inverting the current
        layout and re-placed using ``layout``.
        """
        indices = []
        for address in self.linear:
            row, col = divmod(address, self.cols)
            # Invert the current layout by brute force over the array; the
            # layouts used in practice are bijections, so this is exact.
            indices.append(self._invert_layout(row, col))
        return AddressSequence.from_indices(
            f"{self.name}@{layout.name}", indices, self.rows, self.cols, layout
        )

    def _invert_layout(self, row: int, col: int) -> Tuple[int, int]:
        if not hasattr(self, "_inverse_cache"):
            inverse = {}
            for i0 in range(self.rows):
                for i1 in range(self.cols):
                    inverse[self.layout.rowcol(i0, i1, self.rows, self.cols)] = (i0, i1)
            self._inverse_cache = inverse
        return self._inverse_cache[(row, col)]

    def describe(self) -> str:
        """Short human-readable summary used by the CLI."""
        return (
            f"{self.name}: {self.length} accesses to a {self.rows}x{self.cols} array, "
            f"{len(self.unique_addresses())} distinct addresses"
        )
