"""Named workload registry.

Campaigns, the command-line tool and the benchmark harnesses all need to
refer to workloads *by name* -- a campaign spec is data (it must be hashable,
serialisable and reconstructable inside a worker process), so it cannot carry
pattern objects around.  This module is the single mapping from workload name
to the factory that builds its :class:`~repro.workloads.loopnest.AffineAccessPattern`
for a given array geometry.

Every factory has the uniform signature ``factory(rows, cols) -> AffineAccessPattern``
(``rows``/``cols`` are the physical array dimensions, ``img_height`` x
``img_width`` in the paper's examples).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from repro.workloads import dct, fifo, motion_estimation, patterns, zoom
from repro.workloads.loopnest import AffineAccessPattern

__all__ = ["WORKLOADS", "available_workloads", "build_pattern"]

WorkloadFactory = Callable[[int, int], AffineAccessPattern]

#: Built-in workload factories: name -> callable(rows, cols) -> AffineAccessPattern
WORKLOADS: Dict[str, WorkloadFactory] = {
    "motion_est_read": lambda rows, cols: motion_estimation.new_img_read_pattern(
        cols, rows, 2, 2
    ),
    "motion_est_write": lambda rows, cols: motion_estimation.new_img_write_pattern(
        cols, rows
    ),
    "dct": lambda rows, cols: dct.column_pass_pattern(cols, rows),
    "dct_row": lambda rows, cols: dct.row_pass_pattern(cols, rows),
    "zoombytwo": lambda rows, cols: zoom.zoom_read_pattern(cols, rows, 2),
    "fifo": lambda rows, cols: fifo.fifo_pattern(cols, rows),
    "strided": lambda rows, cols: patterns.strided_pattern(rows, cols, 2),
    "block_raster": lambda rows, cols: patterns.block_raster_pattern(rows, cols, 2, 2),
    "interleaved_row": lambda rows, cols: patterns.interleaved_row_pattern(rows, cols),
}


def available_workloads() -> List[str]:
    """Registered workload names, sorted."""
    return sorted(WORKLOADS)


@lru_cache(maxsize=128)
def _cached_pattern(name: str, rows: int, cols: int) -> AffineAccessPattern:
    return WORKLOADS[name](rows, cols)


def build_pattern(name: str, rows: int, cols: int) -> AffineAccessPattern:
    """Build the access pattern for workload ``name`` on a ``rows x cols`` array.

    Patterns are memoised per ``(name, rows, cols)``: a campaign grid asks
    for the same pattern once per style and opt level, the construction
    walks the whole loop nest, and patterns are never mutated after
    construction.
    """
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        )
    return _cached_pattern(name, rows, cols)
