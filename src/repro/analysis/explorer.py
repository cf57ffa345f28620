"""Design-space exploration across address-generator styles.

The paper's closing goal is "to discover algorithms and heuristics which can
explore the vast design space opened up by address decoder decoupling at a
high level of abstraction and choose the best architecture".  This module is
the interactive, single-workload face of that explorer: given an access
pattern it evaluates every architecture that can implement it, collects
their area/delay points and reports the Pareto frontier.

Candidate enumeration is delegated to :func:`repro.engine.jobs.candidate_factories`
so the explorer and the batch campaign engine (:mod:`repro.engine`) always
agree on the design space; for grid-scale exploration with caching and
parallelism use ``sradgen --campaign`` or :class:`repro.engine.CampaignRunner`
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.mapping_params import MappingError
from repro.engine.jobs import candidate_factories
from repro.engine.pareto import pareto_min
from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import NetlistError
from repro.workloads.loopnest import AffineAccessPattern

__all__ = ["DesignPoint", "ExplorationResult", "explore", "pareto_front"]


@dataclass
class DesignPoint:
    """One evaluated architecture."""

    style: str
    variant: str
    delay_ns: float
    area_cells: float
    flip_flops: int
    applicable: bool = True
    note: str = ""

    @property
    def label(self) -> str:
        """Display label combining style and variant."""
        return f"{self.style}[{self.variant}]" if self.variant else self.style


@dataclass
class ExplorationResult:
    """All design points evaluated for one workload."""

    workload: str
    points: List[DesignPoint] = field(default_factory=list)
    skipped: List[DesignPoint] = field(default_factory=list)

    def pareto(self) -> List[DesignPoint]:
        """Pareto-optimal points (minimising both delay and area)."""
        return pareto_front(self.points)

    def best_delay(self) -> Optional[DesignPoint]:
        """The fastest applicable design."""
        return min(self.points, key=lambda p: p.delay_ns) if self.points else None

    def best_area(self) -> Optional[DesignPoint]:
        """The smallest applicable design."""
        return min(self.points, key=lambda p: p.area_cells) if self.points else None

    def describe(self) -> str:
        """Multi-line summary of the exploration."""
        lines = [f"design space for {self.workload}:"]
        pareto = set(id(p) for p in self.pareto())
        for point in sorted(self.points, key=lambda p: p.delay_ns):
            marker = "*" if id(point) in pareto else " "
            lines.append(
                f" {marker} {point.label:<22} delay {point.delay_ns:6.2f} ns   "
                f"area {point.area_cells:10.0f} cu   FFs {point.flip_flops}"
            )
        for point in self.skipped:
            lines.append(f"   {point.label:<22} not applicable: {point.note}")
        lines.append("(* = Pareto-optimal)")
        return "\n".join(lines)


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Points not dominated in both delay and area by any other point.

    Uses the engine's sort-based O(n log n) sweep (campaigns produce
    thousands of points; the old all-pairs check was quadratic).
    """
    return pareto_min(list(points), key=lambda p: (p.delay_ns, p.area_cells))


def _evaluate(
    design: AddressGeneratorDesign,
    variant: str,
    spec: FlowSpec,
) -> DesignPoint:
    result = design.synthesize(spec=spec)
    return DesignPoint(
        style=design.style,
        variant=variant,
        delay_ns=result.delay_ns,
        area_cells=result.area_cells,
        flip_flops=result.area.flip_flop_count,
    )


def explore(
    pattern: AffineAccessPattern,
    *,
    spec: FlowSpec = DEFAULT_SPEC,
) -> ExplorationResult:
    """Evaluate every applicable architecture for ``pattern``.

    Architectures that cannot implement the pattern (SRAG restrictions, SFM's
    FIFO-only limitation, non-power-of-two arrays for the arithmetic style)
    are recorded in ``skipped`` with the reason, rather than raising.  The
    same applies when the failure only surfaces while elaborating or
    synthesising the candidate, not just while constructing it -- mirroring
    :func:`repro.engine.runner.evaluate_job`, so one impossible architecture
    cannot take down a whole exploration.

    Parameters
    ----------
    spec:
        Flow configuration (:class:`repro.flow.FlowSpec`) applied at every
        design point; defaults to an all-defaults spec.  ``spec.fsm_encodings``
        selects the symbolic-FSM candidates, ``spec.max_fsm_states`` skips
        them for sequences longer than that bound (keeping exploration time
        bounded; the blow-up itself is measured by the synthesis-effort
        benchmark instead), and ``spec.opt_level`` sets the
        logic-optimization effort (0 = raw netlists, the historical
        behaviour).
    """
    sequence = pattern.to_sequence()
    result = ExplorationResult(workload=sequence.name)

    candidates = candidate_factories(
        pattern,
        fsm_encodings=spec.fsm_encodings,
        max_fsm_states=spec.max_fsm_states,
    )
    for style, variant, factory in candidates:
        try:
            design = factory()
            point = _evaluate(design, variant, spec)
        except (MappingError, NetlistError, ValueError) as error:
            result.skipped.append(
                DesignPoint(
                    style=style,
                    variant=variant,
                    delay_ns=float("nan"),
                    area_cells=float("nan"),
                    flip_flops=0,
                    applicable=False,
                    note=str(error),
                )
            )
            continue
        result.points.append(point)
    return result
