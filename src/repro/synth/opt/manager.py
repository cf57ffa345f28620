"""Pass pipeline orchestration.

The :class:`PassManager` runs an ordered list of passes round-robin until a
full round leaves the netlist unchanged (passes enable each other: constant
folding creates wire-throughs that sharing then merges, sharing strands
cells that dead-cell elimination then removes).  :func:`optimize_netlist`
runs the one pipeline there is; the synthesis flow calls it only at
``spec.opt_level`` 1 (:class:`repro.flow.FlowSpec` admits 0 and 1 only),
so level 0 leaves the netlist as generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.hdl.netlist import Netlist
from repro.obs import metrics, span
from repro.synth.opt.passes import (
    BufferCollapsePass,
    ConstantFoldPass,
    DeadCellPass,
    InvPairPass,
    PassStats,
    SharePass,
)

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "OptReport",
    "PassManager",
    "optimize_netlist",
]

#: Upper bound on pipeline rounds; real netlists converge in 2-3 rounds and
#: every pass is individually monotone (cells only disappear), so this is a
#: safety net against a pass bug, not a tuning knob.
DEFAULT_MAX_ROUNDS = 16


@dataclass
class OptReport:
    """Aggregate outcome of one optimization run.

    ``passes`` holds one accumulated :class:`PassStats` per pipeline pass in
    pipeline order; ``cells_removed`` is the *net* reduction, so
    ``cells_removed + final_cells == original_cells`` always holds (passes
    that add helper cells, e.g. tie sources, are accounted for).
    """

    original_cells: int
    final_cells: int = 0
    rounds: int = 0
    passes: List[PassStats] = field(default_factory=list)

    @property
    def cells_removed(self) -> int:
        """Net number of cells the pipeline eliminated."""
        return self.original_cells - self.final_cells

    @property
    def changed(self) -> bool:
        """True when any pass modified the netlist."""
        return any(stats.changed for stats in self.passes)

    def describe(self) -> str:
        """Multi-line per-pass summary."""
        lines = [
            f"logic optimization: {self.original_cells} -> {self.final_cells} cells "
            f"(-{self.cells_removed}) in {self.rounds} round(s)"
        ]
        for stats in self.passes:
            detail = f"removed {stats.removed}"
            if stats.added:
                detail += f", added {stats.added}"
            if stats.merged:
                detail += f", merged {stats.merged}"
            lines.append(
                f"  {stats.name:<12} {detail} ({stats.iterations} sweep(s))"
            )
        return "\n".join(lines)


class PassManager:
    """Run an ordered pass pipeline to fixpoint over a netlist."""

    def __init__(self, passes: Sequence[object], *,
                 max_rounds: int = DEFAULT_MAX_ROUNDS):
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.passes = list(passes)
        self.max_rounds = max_rounds

    def run(self, netlist: Netlist) -> OptReport:
        """Optimize ``netlist`` in place and return the per-pass report."""
        report = OptReport(original_cells=len(netlist.cells))
        aggregate = [PassStats(p.name) for p in self.passes]
        with span("opt.pipeline", detail=netlist.name) as pipeline_span:
            for _ in range(self.max_rounds):
                round_changed = False
                for opt_pass, total in zip(self.passes, aggregate):
                    with span(f"opt.{opt_pass.name}"):
                        stats = opt_pass.run(netlist)
                    total.absorb(stats)
                    round_changed = round_changed or stats.changed
                report.rounds += 1
                if not round_changed:
                    break
            report.passes = aggregate
            report.final_cells = len(netlist.cells)
            pipeline_span.add("rounds", report.rounds)
            pipeline_span.add("cells_removed", report.cells_removed)
        # Per-pass PassStats fold into the metrics registry once per run
        # (aggregate, never per-sweep), so campaign-wide optimization effort
        # is visible without touching the hot inner loops.
        metrics.incr("opt.runs")
        metrics.incr("opt.rounds", report.rounds)
        metrics.incr("opt.cells_removed", report.cells_removed)
        for stats in aggregate:
            metrics.incr(f"opt.pass.{stats.name}.removed", stats.removed)
            metrics.incr(f"opt.pass.{stats.name}.iterations", stats.iterations)
        return report


def optimize_netlist(
    netlist: Netlist,
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    passes: Optional[Sequence[object]] = None,
) -> OptReport:
    """Optimize ``netlist`` in place and return the report.

    The pipeline's order matters: constant folding first (it creates
    wire-throughs and inverters), then sharing (decoder subtree merging),
    then the chain collapses, and dead-cell elimination last to sweep
    whatever the earlier passes stranded.  ``passes`` replaces it (useful
    for testing a single pass in isolation).
    """
    if passes is None:
        passes = [
            ConstantFoldPass(),
            SharePass(),
            InvPairPass(),
            BufferCollapsePass(),
            DeadCellPass(),
        ]
    return PassManager(passes, max_rounds=max_rounds).run(netlist)
