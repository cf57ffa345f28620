#!/usr/bin/env python3
"""Design-space exploration: choosing an address generator per workload.

The paper's stated end goal is an explorer that "can explore the vast design
space opened up by address decoder decoupling ... and choose the best
architecture".  This example runs that exploration for three workloads
(DCT column pass, zoom-by-two, motion-estimation block read), prints every
applicable architecture with its area/delay, marks the Pareto-optimal points,
and shows what happens for a sequence the SRAG cannot implement (a
serpentine scan): the mapper rejects it, and a CntAG or FSM generator is
the architecture left to pick.

Run with::

    python examples/design_space_exploration.py
"""

from repro.analysis.explorer import explore
from repro.core.mapper import map_sequence
from repro.core.mapping_params import MappingError
from repro.workloads import dct, motion_estimation, patterns, zoom


def main() -> None:
    workloads = {
        "dct column pass (8x8)": dct.column_pass_pattern(8, 8),
        "zoom by two (8x8)": zoom.zoom_read_pattern(8, 8, 2),
        "motion estimation read (8x8)": motion_estimation.new_img_read_pattern(8, 8, 2, 2),
    }
    for label, pattern in workloads.items():
        print(f"### {label}")
        print(explore(pattern).describe())
        print()

    # A pattern outside the SRAG's reach: the serpentine (boustrophedon) scan.
    serpentine = patterns.serpentine_sequence(4, 4)
    print("### serpentine scan (4x4) -- outside the strict SRAG's restrictions")
    try:
        map_sequence(serpentine.col_sequence, num_lines=4)
    except MappingError as error:
        print(f"strict mapper: {error}")


if __name__ == "__main__":
    main()
