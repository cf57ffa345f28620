"""Tests for the memory models (RAM, ADDM, SFM, layouts, cell array)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.addm import AddressDecoderDecoupledMemory
from oracles.cell_array import MemoryCellArray, MultipleSelectError
from oracles.ram import ConventionalRAM
from oracles.sfm import SequentialFifoMemory
from oracles.two_hot import encode_two_hot
from repro.memory.layout import COLUMN_MAJOR, ROW_MAJOR, BlockedLayout


# ---------------------------------------------------------------------------
# Cell array
# ---------------------------------------------------------------------------

def test_cell_array_read_write():
    array = MemoryCellArray(2, 3)
    array.write_cell(1, 2, 42)
    assert array.read_cell(1, 2) == 42
    assert array.read_count == 1
    assert array.write_count == 1


def test_cell_array_bounds():
    array = MemoryCellArray(2, 2)
    with pytest.raises(IndexError):
        array.read_cell(2, 0)
    with pytest.raises(ValueError):
        MemoryCellArray(0, 4)


def test_cell_array_select_access_and_hazards():
    array = MemoryCellArray(4, 4)
    row, col = encode_two_hot(2, 1, 4, 4)
    array.write_selected(row, col, 7)
    assert array.read_selected(row, col) == 7
    with pytest.raises(MultipleSelectError):
        array.read_selected([1, 1, 0, 0], col)
    with pytest.raises(MultipleSelectError):
        array.read_selected([0, 0, 0, 0], col)
    with pytest.raises(ValueError):
        array.read_selected([1, 0, 0], col)


def test_cell_array_snapshot_and_load():
    array = MemoryCellArray(2, 2, fill=9)
    snap = array.snapshot()
    assert snap == [[9, 9], [9, 9]]
    array.load([[1, 2], [3, 4]])
    assert array.read_cell(1, 0) == 3
    with pytest.raises(ValueError):
        array.load([[1, 2, 3]])


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------

def test_row_major_matches_paper_linear_address():
    # LA = I0 * img_width + I1 for a 4x4 array.
    assert ROW_MAJOR.linear(1, 2, 4, 4) == 6
    assert ROW_MAJOR.linear_to_rowcol(6, 4, 4) == (1, 2)


def test_column_major_layout():
    assert COLUMN_MAJOR.rowcol(1, 2, 4, 4) == (2, 1)


def test_blocked_layout_linearises_blocks():
    layout = BlockedLayout(2, 2)
    # The first 2x2 block occupies linear addresses 0..3.
    addresses = [layout.linear(i0, i1, 4, 4) for i0 in (0, 1) for i1 in (0, 1)]
    assert sorted(addresses) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        layout.linear(0, 0, 3, 4)


@given(rows=st.integers(2, 6), cols=st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_layouts_are_bijections(rows, cols):
    for layout in (ROW_MAJOR, COLUMN_MAJOR):
        seen = set()
        for i0 in range(rows):
            for i1 in range(cols):
                seen.add(layout.rowcol(i0, i1, rows, cols))
        assert len(seen) == rows * cols


def test_layout_bounds_checked():
    with pytest.raises(IndexError):
        ROW_MAJOR.rowcol(4, 0, 4, 4)
    with pytest.raises(IndexError):
        ROW_MAJOR.linear_to_rowcol(16, 4, 4)


# ---------------------------------------------------------------------------
# Conventional RAM
# ---------------------------------------------------------------------------

def test_ram_requires_power_of_two():
    with pytest.raises(ValueError):
        ConventionalRAM(3, 4)


def test_ram_address_split_and_access():
    ram = ConventionalRAM(4, 8)
    assert ram.address_width == 5
    assert ram.split_address(13) == (1, 5)
    ram.write(13, 99)
    assert ram.read(13) == 99
    assert ram.array.read_cell(1, 5) == 99
    with pytest.raises(IndexError):
        ram.read(32)


def test_ram_every_address_is_distinct_cell():
    ram = ConventionalRAM(4, 4)
    for address in range(16):
        ram.write(address, address + 100)
    assert [ram.read(a) for a in range(16)] == [a + 100 for a in range(16)]


# ---------------------------------------------------------------------------
# ADDM
# ---------------------------------------------------------------------------

def test_addm_select_line_access():
    addm = AddressDecoderDecoupledMemory(4, 4)
    row, col = encode_two_hot(3, 0, 4, 4)
    addm.write(row, col, 5)
    assert addm.read(row, col) == 5
    assert addm.read_rowcol(3, 0) == 5


def test_addm_rejects_multiple_asserted_lines():
    addm = AddressDecoderDecoupledMemory(4, 4)
    with pytest.raises(MultipleSelectError):
        addm.write([1, 0, 1, 0], [1, 0, 0, 0], 1)


def test_addm_size_properties():
    addm = AddressDecoderDecoupledMemory(8, 16)
    assert addm.rows == 8
    assert addm.cols == 16
    assert addm.size == 128


# ---------------------------------------------------------------------------
# Sequential FIFO Memory
# ---------------------------------------------------------------------------

def test_sfm_fifo_ordering():
    sfm = SequentialFifoMemory(4)
    for value in (10, 20, 30):
        sfm.push(value)
    assert sfm.occupancy == 3
    assert [sfm.pop(), sfm.pop(), sfm.pop()] == [10, 20, 30]
    assert sfm.is_empty


def test_sfm_wraps_around():
    sfm = SequentialFifoMemory(3)
    for value in (1, 2, 3):
        sfm.push(value)
    assert sfm.pop() == 1
    sfm.push(4)
    assert [sfm.pop(), sfm.pop(), sfm.pop()] == [2, 3, 4]


def test_sfm_full_and_empty_errors():
    sfm = SequentialFifoMemory(2)
    with pytest.raises(IndexError):
        sfm.pop()
    sfm.push(1)
    sfm.push(2)
    assert sfm.is_full
    with pytest.raises(OverflowError):
        sfm.push(3)


def test_sfm_pointer_vectors_are_one_hot():
    sfm = SequentialFifoMemory(4)
    sfm.push(1)
    assert sum(sfm.tail_pointer) == 1
    assert sfm.tail_pointer.index(1) == 1
    assert sfm.head_pointer.index(1) == 0


def test_sfm_reset():
    sfm = SequentialFifoMemory(4)
    sfm.push(1)
    sfm.reset()
    assert sfm.is_empty
    assert sfm.head_pointer.index(1) == 0


def test_sfm_access_pattern_limitation():
    sfm = SequentialFifoMemory(8)
    assert sfm.supports_access_pattern([0, 1, 2, 3])
    assert sfm.supports_access_pattern([5, 6, 7, 0, 1])
    # Block access (the motion-estimation order) is not FIFO.
    assert not sfm.supports_access_pattern([0, 1, 4, 5])
