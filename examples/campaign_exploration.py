#!/usr/bin/env python3
"""Campaign-scale design-space exploration with caching and parallelism.

Where ``design_space_exploration.py`` explores one workload at a time, this
example drives the campaign engine over a whole grid: every architecture for
three workloads at three array sizes, evaluated by a pool of worker
processes, with every result persisted in an on-disk cache.  Running the
script a second time replays the campaign entirely from the cache (watch the
"cache hits" line), which is how the figure sweeps and any future heuristic
search can iterate over the design space without re-synthesising known
points.

Run with::

    python examples/campaign_exploration.py [cache_dir]
"""

import sys

from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign
from repro.engine.runner import CampaignRunner


def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else ".sradgen_cache"
    campaign = Campaign.from_grid(
        "example",
        workloads=("dct", "zoombytwo", "motion_est_read"),
        geometries=((4, 4), (8, 8), (16, 16)),
    )
    print(f"{len(campaign)} design points, cache in {cache_dir!r}")

    runner = CampaignRunner(
        ResultCache(cache_dir),
        progress=lambda record, done, total: print(
            f"  [{done:>3}/{total}] {record.label:<44} "
            f"{'cached' if record.cached else record.status}"
        ),
    )
    result = runner.run(campaign)
    print()
    print(result.describe())

    # The grid is data: pick the fastest design per workload/geometry group.
    print()
    print("fastest design per group:")
    for (workload, rows, cols, library), front in sorted(result.pareto_fronts().items()):
        best = min(front, key=lambda record: record.delay_ns)
        print(
            f"  {workload:<18} {rows}x{cols}: {best.style}[{best.variant}] "
            f"at {best.delay_ns:.3f} ns / {best.area_cells:.0f} cu"
        )


if __name__ == "__main__":
    main()
