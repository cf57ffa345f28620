#!/usr/bin/env python3
"""Quickstart: map an address sequence onto the SRAG and measure it.

This walks the complete flow of the paper on its own running example
(Tables 1 and 2):

1. generate the ``new_img`` read sequence of the block-matching kernel,
2. run the SRAdGen mapping procedure on its row/column address sequences,
3. elaborate the two-hot SRAG, verify it at gate level,
4. emit synthesisable VHDL, and
5. report area and delay against the 0.18 um-class cell library.

Run with::

    python examples/quickstart.py
"""

from repro.core.sradgen import generate
from repro.workloads import motion_estimation


def main() -> None:
    # Step 1: the paper's running example -- a 4x4 image read in 2x2 blocks.
    sequence = motion_estimation.read_sequence(
        img_width=4, img_height=4, mb_width=2, mb_height=2
    )
    print("Address sequence (Table 1):")
    print(f"  LinAS = {sequence.linear}")
    print(f"  RowAS = {sequence.row_sequence}")
    print(f"  ColAS = {sequence.col_sequence}")
    print()

    # Steps 2-5: the SRAdGen flow (mapping, elaboration, verification, HDL,
    # synthesis) in one call.
    result = generate(sequence, emit_vhdl_text=True, synthesize=True)

    print("Row address sequence mapping (Table 2):")
    print(result.row_mapping.describe())
    print()
    print("Column address sequence mapping:")
    print(result.col_mapping.describe())
    print()

    print("Synthesis result:")
    print(f"  {result.synthesis.summary()}")
    print()

    vhdl_lines = result.vhdl.splitlines()
    print(f"Generated VHDL: {len(vhdl_lines)} lines; entity preview:")
    for line in vhdl_lines:
        if line.startswith("entity srag_"):
            print(f"  {line}")
            break


if __name__ == "__main__":
    main()
