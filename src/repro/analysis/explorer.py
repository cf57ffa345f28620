"""Design-space exploration across address-generator styles.

The paper's closing goal is "to discover algorithms and heuristics which can
explore the vast design space opened up by address decoder decoupling at a
high level of abstraction and choose the best architecture".  This module is
the interactive, single-workload face of that explorer: given an access
pattern it evaluates every architecture that can implement it, collects
their area/delay points and reports the Pareto frontier.

Candidates come from :func:`repro.engine.jobs.candidate_factories` and each
one is evaluated by :func:`repro.engine.runner.evaluate_point`, so the
explorer and the batch campaign engine (:mod:`repro.engine`) agree on the
design space, the figures and the skip rules; for grid-scale exploration
with caching and parallelism use ``sradgen --campaign`` or
:class:`repro.engine.runner.CampaignRunner` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.engine.jobs import candidate_factories
from repro.engine.pareto import pareto_min
from repro.engine.records import OK, SKIPPED, EvalRecord
from repro.engine.runner import evaluate_point
from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.workloads.loopnest import AffineAccessPattern

__all__ = ["ExplorationResult", "explore"]


@dataclass
class ExplorationResult:
    """All design points evaluated for one workload.

    ``points`` holds the ``ok`` records; ``skipped`` holds the rest
    (inapplicable architectures and, should one occur, ``error`` records).
    """

    workload: str
    points: List[EvalRecord] = field(default_factory=list)
    skipped: List[EvalRecord] = field(default_factory=list)

    def pareto(self) -> List[EvalRecord]:
        """Pareto-optimal points (minimising both delay and area)."""
        return pareto_min(self.points, key=lambda r: (r.delay_ns, r.area_cells))

    def describe(self) -> str:
        """Multi-line summary of the exploration."""
        lines = [f"design space for {self.workload}:"]
        pareto = set(id(r) for r in self.pareto())
        for record in sorted(self.points, key=lambda r: r.delay_ns):
            marker = "*" if id(record) in pareto else " "
            lines.append(
                f" {marker} {_label(record):<22} delay {record.delay_ns:6.2f} ns   "
                f"area {record.area_cells:10.0f} cu   FFs {record.flip_flops}"
            )
        for record in self.skipped:
            reason = "not applicable" if record.status == SKIPPED else record.status
            lines.append(f"   {_label(record):<22} {reason}: {record.note}")
        lines.append("(* = Pareto-optimal)")
        return "\n".join(lines)


def _label(record: EvalRecord) -> str:
    return f"{record.style}[{record.variant}]"


def explore(
    pattern: AffineAccessPattern,
    *,
    spec: FlowSpec = DEFAULT_SPEC,
) -> ExplorationResult:
    """Evaluate every applicable architecture for ``pattern``.

    Architectures that cannot implement the pattern (SRAG restrictions, SFM's
    FIFO-only limitation, non-power-of-two arrays for the arithmetic style,
    binary/gray FSMs too wide for truth-table synthesis) are recorded in
    ``skipped`` with the reason, rather than raising, whether the failure
    surfaces while constructing, elaborating or synthesising the candidate: :func:`repro.engine.runner.evaluate_point` classifies every
    point, exactly as it does for campaign jobs.

    Parameters
    ----------
    spec:
        Flow configuration (:class:`repro.flow.FlowSpec`) applied at every
        design point; defaults to an all-defaults spec.  Symbolic-FSM
        candidates take every encoding of
        :data:`repro.engine.jobs.FSM_ENCODINGS`; ``spec.max_fsm_states`` leaves
        them out for sequences longer than that bound (keeping exploration
        time bounded; the blow-up itself is measured by the synthesis-effort
        benchmark instead), ``spec.opt_level`` sets the logic-optimization
        effort, and ``spec.lint``/``spec.verify`` attach their diagnostics to
        each record.
    """
    result = ExplorationResult(workload=pattern.name)
    candidates = candidate_factories(pattern, max_fsm_states=spec.max_fsm_states)
    for style, variant, _ in candidates:
        record = evaluate_point(
            lambda: pattern, style, variant, spec,
            workload=pattern.name, rows=pattern.rows, cols=pattern.cols,
        )
        (result.points if record.status == OK else result.skipped).append(record)
    return result
