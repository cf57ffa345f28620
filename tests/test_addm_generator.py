"""Tests for the complete two-hot SRAG generator and its use with an ADDM."""

import pytest

from repro.core.addm_generator import SragAddressGenerator
from repro.core.mapping_params import MappingError
from repro.core.srag import SragFunctionalModel
from oracles.addm import AddressDecoderDecoupledMemory
from oracles.two_hot import (
    encode_two_hot,
    is_valid_two_hot,
    one_hot_width,
    two_hot_width,
)
from repro.generators.srag_design import SragDesign
from repro.hdl.simulator import Simulator
from repro.workloads import dct, fifo, motion_estimation, patterns, zoom


# ---------------------------------------------------------------------------
# Two-hot helpers
# ---------------------------------------------------------------------------

def test_two_hot_widths():
    assert two_hot_width(16, 16) == 32
    assert one_hot_width(16, 16) == 256
    with pytest.raises(ValueError):
        two_hot_width(0, 4)


def test_two_hot_encode_decode_round_trip():
    row, col = encode_two_hot(2, 3, 4, 8)
    assert is_valid_two_hot(row, col)
    assert (row.index(1), col.index(1)) == (2, 3)
    with pytest.raises(ValueError):
        encode_two_hot(4, 0, 4, 4)
    assert not is_valid_two_hot([1, 1, 0, 0], col)


# ---------------------------------------------------------------------------
# Generator construction and verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sequence_factory",
    [
        lambda: motion_estimation.read_sequence(4, 4, 2, 2),
        lambda: motion_estimation.read_sequence(8, 8, 4, 4),
        lambda: motion_estimation.write_sequence(4, 4),
        lambda: dct.column_pass_sequence(4, 4),
        lambda: zoom.zoom_read_sequence(4, 4, 2),
        lambda: fifo.fifo_sequence(8, 4),
    ],
)
def test_generator_reproduces_sequence_functionally_and_structurally(sequence_factory):
    sequence = sequence_factory()
    generator = SragAddressGenerator.from_sequence(sequence)
    steps = sequence.length
    row_model = SragFunctionalModel.from_mapping(generator.row_mapping)
    col_model = SragFunctionalModel.from_mapping(generator.col_mapping)
    assert row_model.run(steps) == sequence.row_sequence
    assert col_model.run(steps) == sequence.col_sequence
    assert SragDesign(sequence).verify()


def test_generator_reports_dimensions():
    generator = SragAddressGenerator.from_sequence(
        motion_estimation.read_sequence(8, 4, 2, 2)
    )
    assert generator.rows == 4
    assert generator.cols == 8
    assert len(generator.netlist.outputs) == 12  # two-hot: rows + cols lines
    assert set(generator.netlist.inputs) == {"clk", "next", "reset"}
    assert f"rs_{generator.rows - 1}" in generator.netlist.outputs
    assert f"cs_{generator.cols - 1}" in generator.netlist.outputs


def test_generator_rejects_unmappable_sequence():
    serpentine = patterns.serpentine_sequence(4, 4)
    with pytest.raises(MappingError):
        SragAddressGenerator.from_sequence(serpentine)


def test_generator_simulation_over_multiple_periods():
    sequence = dct.column_pass_sequence(4, 4)
    generator = SragAddressGenerator.from_sequence(sequence)
    steps = 2 * sequence.length
    rows = SragFunctionalModel.from_mapping(generator.row_mapping).run(steps)
    cols = SragFunctionalModel.from_mapping(generator.col_mapping).run(steps)
    produced = [row * sequence.cols + col for row, col in zip(rows, cols)]
    assert produced == sequence.linear * 2


def test_generator_flip_flop_budget():
    """The SRAG uses one flip-flop per distinct row plus one per distinct column
    (plus the small control counters), not one per word."""
    sequence = motion_estimation.read_sequence(8, 8, 2, 2)
    generator = SragAddressGenerator.from_sequence(sequence)
    shift_register_flops = (
        generator.row_mapping.total_flip_flops + generator.col_mapping.total_flip_flops
    )
    assert shift_register_flops == 16
    total_flops = len(generator.netlist.sequential_cells())
    assert shift_register_flops <= total_flops <= shift_register_flops + 8


# ---------------------------------------------------------------------------
# End-to-end with the ADDM memory model
# ---------------------------------------------------------------------------

def test_generator_drives_addm_to_read_correct_data():
    """Gate-level SRAG select lines drive the ADDM and fetch the right words."""
    sequence = motion_estimation.read_sequence(4, 4, 2, 2)
    generator = SragAddressGenerator.from_sequence(sequence)
    memory = AddressDecoderDecoupledMemory(4, 4)
    for row in range(4):
        for col in range(4):
            memory.write_rowcol(row, col, 100 + row * 4 + col)

    sim = Simulator(generator.netlist)
    sim.reset()
    sim.poke("next", 1)
    fetched = []
    for _ in range(sequence.length):
        sim.settle()
        row_select = [sim.peek(net) for net in generator.row_ports.select_lines]
        col_select = [sim.peek(net) for net in generator.col_ports.select_lines]
        fetched.append(memory.read(row_select, col_select))
        sim.step()
    assert fetched == [100 + address for address in sequence.linear]


def test_write_then_read_through_two_generators():
    """Fill the ADDM through the write-order SRAG, read back via the read-order SRAG."""
    rows = cols = 4
    write_gen = SragAddressGenerator.from_sequence(
        motion_estimation.write_sequence(cols, rows)
    )
    read_gen = SragAddressGenerator.from_sequence(
        motion_estimation.read_sequence(cols, rows, 2, 2)
    )
    memory = AddressDecoderDecoupledMemory(rows, cols)

    writer = Simulator(write_gen.netlist)
    writer.reset()
    writer.poke("next", 1)
    for value in range(rows * cols):
        writer.settle()
        row_select = [writer.peek(net) for net in write_gen.row_ports.select_lines]
        col_select = [writer.peek(net) for net in write_gen.col_ports.select_lines]
        memory.write(row_select, col_select, 1000 + value)
        writer.step()

    reader = Simulator(read_gen.netlist)
    reader.reset()
    reader.poke("next", 1)
    observed = []
    for _ in range(rows * cols):
        reader.settle()
        row_select = [reader.peek(net) for net in read_gen.row_ports.select_lines]
        col_select = [reader.peek(net) for net in read_gen.col_ports.select_lines]
        observed.append(memory.read(row_select, col_select))
        reader.step()
    expected = [1000 + address for address in read_gen.sequence.linear]
    assert observed == expected
