#!/usr/bin/env python3
"""System-level scenario: a complete ADDM + SRAG datapath for image zooming.

The generated address generator is only useful if it really streams the right
pixels.  This example builds the full system the paper's Figure 2 sketches:

* an address decoder-decoupled memory holding a small source image,
* a write-order SRAG filling it in raster order (gate-level simulation),
* a read-order SRAG producing the zoom-by-two access pattern, and
* a consumer that assembles the zoomed output image from the streamed pixels.

Along the way it checks the safety property the paper's conclusion worries
about: at no point are two row (or column) select lines asserted together.

Run with::

    python examples/addm_system_simulation.py
"""

from repro.core.addm_generator import SragAddressGenerator
from repro.hdl.simulator import Simulator
from repro.memory.addm import AddressDecoderDecoupledMemory
from repro.workloads import fifo, zoom

SRC_WIDTH = 4
SRC_HEIGHT = 4
FACTOR = 2


def drive(generator: SragAddressGenerator, memory, values=None):
    """Clock a generator's netlist against the ADDM; read or write each cycle."""
    simulator = Simulator(generator.netlist)
    simulator.reset()
    simulator.poke("next", 1)
    streamed = []
    for step in range(generator.sequence.length):
        simulator.settle()
        row_select = [simulator.peek(net) for net in generator.row_ports.select_lines]
        col_select = [simulator.peek(net) for net in generator.col_ports.select_lines]
        assert sum(row_select) == 1 and sum(col_select) == 1, "select lines not two-hot"
        if values is None:
            streamed.append(memory.read(row_select, col_select))
        else:
            memory.write(row_select, col_select, values[step])
        simulator.step()
    return streamed


def main() -> None:
    # Source image: pixel value encodes its own coordinates for easy checking.
    source_pixels = [10 * r + c for r in range(SRC_HEIGHT) for c in range(SRC_WIDTH)]
    memory = AddressDecoderDecoupledMemory(SRC_HEIGHT, SRC_WIDTH)

    # Fill the memory through a raster-order (FIFO) SRAG.
    write_generator = SragAddressGenerator.from_sequence(
        fifo.fifo_sequence(SRC_WIDTH, SRC_HEIGHT)
    )
    drive(write_generator, memory, values=source_pixels)
    print("source image loaded through the write-order SRAG:")
    for row in memory.array.snapshot():
        print("  ", row)

    # Read it back through the zoom-by-two SRAG and assemble the output image.
    read_generator = SragAddressGenerator.from_sequence(
        zoom.zoom_read_sequence(SRC_WIDTH, SRC_HEIGHT, FACTOR)
    )
    print()
    print("zoom read mapping (row dimension):")
    print(read_generator.row_mapping.describe())

    streamed = drive(read_generator, memory)
    out_width = SRC_WIDTH * FACTOR
    zoomed = [
        streamed[i * out_width:(i + 1) * out_width]
        for i in range(SRC_HEIGHT * FACTOR)
    ]
    print()
    print("zoomed output image (streamed through the read-order SRAG):")
    for row in zoomed:
        print("  ", row)

    # Check against a software zoom.
    expected = [
        [source_pixels[(r // FACTOR) * SRC_WIDTH + (c // FACTOR)] for c in range(out_width)]
        for r in range(SRC_HEIGHT * FACTOR)
    ]
    assert zoomed == expected, "zoomed image does not match the software reference"
    print()
    print("gate-level ADDM system matches the software reference zoom.")


if __name__ == "__main__":
    main()
