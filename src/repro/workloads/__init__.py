"""Workload (address sequence) generators.

Each module produces the access patterns of one application class the paper
uses, both as an :class:`~repro.workloads.sequences.AddressSequence` (what
the SRAG mapper and the memory models consume) and, where the pattern comes
from an affine loop nest, as an
:class:`~repro.workloads.loopnest.AffineAccessPattern` (what the
counter-based CntAG baseline is constructed from).

* :mod:`repro.workloads.motion_estimation` -- the block-matching kernel of
  Figure 7 (Tables 1/2, Figures 8-10, the ``motion_est`` row of Table 3).
* :mod:`repro.workloads.dct` -- separable DCT column pass (Table 3 ``dct``).
* :mod:`repro.workloads.zoom` -- nearest-neighbour image zoom (Table 3
  ``zoombytwo``).
* :mod:`repro.workloads.fifo` -- incremental / FIFO access (Table 3 ``fifo``
  and the Section 3 sweep of Figures 3-4).
* :mod:`repro.workloads.patterns` -- additional synthetic patterns for
  design-space exploration and negative tests.
"""

from repro.workloads.loopnest import AffineAccessPattern, AffineExpression, Loop
from repro.workloads.sequences import (
    AddressSequence,
    collapse_repetitions,
    consecutive_repetitions,
)
from repro.workloads import dct, fifo, motion_estimation, patterns, zoom
from repro.workloads.registry import (
    WORKLOADS,
    available_workloads,
    build_pattern,
)
from repro.workloads.dct import column_pass_pattern, column_pass_sequence
from repro.workloads.fifo import fifo_pattern, fifo_sequence, incremental_sequence
from repro.workloads.motion_estimation import (
    new_img_read_pattern,
    new_img_write_pattern,
    read_sequence,
    write_sequence,
)
from repro.workloads.zoom import zoom_read_pattern, zoom_read_sequence

__all__ = [
    "AddressSequence",
    "AffineAccessPattern",
    "AffineExpression",
    "Loop",
    "WORKLOADS",
    "available_workloads",
    "build_pattern",
    "collapse_repetitions",
    "consecutive_repetitions",
    "dct",
    "fifo",
    "motion_estimation",
    "patterns",
    "zoom",
    "column_pass_pattern",
    "column_pass_sequence",
    "fifo_pattern",
    "fifo_sequence",
    "incremental_sequence",
    "new_img_read_pattern",
    "new_img_write_pattern",
    "read_sequence",
    "write_sequence",
    "zoom_read_pattern",
    "zoom_read_sequence",
]
