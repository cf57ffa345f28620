"""Evaluation records and campaign results: plain data, no evaluation code.

:class:`EvalRecord` is one job's outcome and :class:`CampaignResult` one
campaign's records with their Pareto fronts, so the ``--connect`` client
reads records without loading generators, synthesis or the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.pareto import pareto_min
from repro.flow import opt_label_suffix

__all__ = [
    "CampaignResult",
    "ERROR",
    "EvalRecord",
    "GroupKey",
    "OK",
    "SKIPPED",
]

#: Record status values.
OK, SKIPPED, ERROR = "ok", "skipped", "error"


@dataclass
class EvalRecord:
    """The outcome of one evaluation job.

    ``status`` is ``"ok"`` (metrics valid), ``"skipped"`` (architecture not
    applicable to the workload; ``note`` holds the reason) or ``"error"``
    (unexpected failure; ``note`` holds the traceback summary).

    ``energy_per_access_fj`` / ``avg_power_uw`` are NaN unless the job asked
    for the power study (``spec.power_cycles > 0``); records cached before
    power existed load fine -- :meth:`from_dict` fills missing fields with
    their defaults.

    ``opt_level`` / ``opt_cells_removed`` record the logic-optimization
    setting and its win (net cells eliminated before buffering); both stay
    at their zero defaults -- and out of the cached dictionary form -- for
    jobs that do not opt in, so pre-optimization cache entries round-trip
    unchanged.

    ``lint_findings`` holds the design-rule findings (as plain dicts) when
    the job ran with ``spec.lint`` set.  Like ``cached`` it is *volatile*
    evaluation metadata, never part of the cached dictionary form: lint is a
    diagnostic over the evaluation, not part of it, so records written with
    linting on and off must be indistinguishable on disk (and a cached
    record legitimately satisfies a linted request).

    ``verify_result`` holds the formal-equivalence verdict (as a plain dict)
    when the job ran with ``spec.verify`` set; volatile under exactly the
    lint contract above.
    """

    workload: str
    rows: int
    cols: int
    style: str
    variant: str
    library: str
    key: str
    status: str
    delay_ns: float = float("nan")
    area_cells: float = float("nan")
    flip_flops: int = 0
    total_cells: int = 0
    buffers_inserted: int = 0
    energy_per_access_fj: float = float("nan")
    avg_power_uw: float = float("nan")
    opt_level: int = 0
    opt_cells_removed: int = 0
    note: str = ""
    duration_s: float = 0.0
    cached: bool = False
    lint_findings: List[dict] = field(default_factory=list)
    verify_result: Optional[dict] = None

    @property
    def has_power(self) -> bool:
        """True when the record carries power-study metrics."""
        return self.energy_per_access_fj == self.energy_per_access_fj

    @property
    def label(self) -> str:
        """Compact display label, e.g. ``fifo 8x8 SRAG[two-hot] O1``."""
        return (
            f"{self.workload} {self.rows}x{self.cols} "
            f"{self.style}[{self.variant}]{opt_label_suffix(self.opt_level)}"
        )

    def to_dict(self) -> dict:
        """Plain-dict form stored in the result cache.

        The volatile fields (``cached``, ``lint_findings``,
        ``verify_result``) are dropped unconditionally, so cache records
        stay byte-identical whether or not those diagnostics ran.  The power
        fields are omitted when the study did not run, and the optimization
        fields when the job ran at the default ``opt_level=0``, so cache
        entries for jobs predating either feature keep their exact original
        format (and NaN never has to survive a JSON round-trip).
        """
        data = {name: getattr(self, name) for name in _PERSISTED_FIELDS}
        if not self.has_power:
            data.pop("energy_per_access_fj")
            data.pop("avg_power_uw")
        if not self.opt_level:
            data.pop("opt_level")
            data.pop("opt_cells_removed")
        return data

    @classmethod
    def from_dict(cls, data: dict, *, cached: bool = False) -> "EvalRecord":
        """Rebuild a record from its cached dictionary form."""
        known = {f for f in cls.__dataclass_fields__ if f != "cached"}
        return cls(cached=cached, **{k: v for k, v in data.items() if k in known})


#: Fields of the cached dictionary form, in declaration order: every field
#: but the volatile ``cached``, ``lint_findings`` and ``verify_result``.
_PERSISTED_FIELDS = tuple(
    name
    for name in EvalRecord.__dataclass_fields__
    if name not in ("cached", "lint_findings", "verify_result")
)


GroupKey = Tuple[str, int, int, str]  # (workload, rows, cols, library)


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: str
    records: List[EvalRecord] = field(default_factory=list)

    # -------------------------------------------------------------- queries
    @property
    def hits(self) -> int:
        """Number of records served from the cache."""
        return sum(1 for record in self.records if record.cached)

    @property
    def evaluated(self) -> int:
        """Number of records evaluated fresh in this run."""
        return len(self.records) - self.hits

    def ok_records(self) -> List[EvalRecord]:
        """Records with valid metrics."""
        return [record for record in self.records if record.status == OK]

    def groups(self) -> Dict[GroupKey, List[EvalRecord]]:
        """Successful records grouped by (workload, rows, cols, library)."""
        grouped: Dict[GroupKey, List[EvalRecord]] = {}
        for record in self.ok_records():
            key = (record.workload, record.rows, record.cols, record.library)
            grouped.setdefault(key, []).append(record)
        return grouped

    def pareto_fronts(self) -> Dict[GroupKey, List[EvalRecord]]:
        """Per-group Pareto fronts minimising (delay, area)."""
        return {
            key: pareto_min(records, key=lambda r: (r.delay_ns, r.area_cells))
            for key, records in self.groups().items()
        }

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        """Multi-line campaign summary with per-group Pareto fronts."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        lines = [
            f"campaign {self.campaign!r}: {len(self.records)} points "
            f"({counts.get(OK, 0)} ok, {counts.get(SKIPPED, 0)} skipped, "
            f"{counts.get(ERROR, 0)} errors); "
            f"cache hits {self.hits}/{len(self.records)}"
        ]
        for group_key, front in sorted(self.pareto_fronts().items()):
            workload, rows, cols, library = group_key
            lines.append(f"  {workload} {rows}x{cols} @{library}:")
            for record in sorted(front, key=lambda r: r.delay_ns):
                style = f"{record.style}[{record.variant}]"
                style += opt_label_suffix(record.opt_level)
                power = (
                    f"   e/access {record.energy_per_access_fj:8.1f} fJ"
                    if record.has_power
                    else ""
                )
                lines.append(
                    f"    * {style:<18} delay {record.delay_ns:7.3f} ns   "
                    f"area {record.area_cells:10.1f} cu   FFs {record.flip_flops}"
                    f"{power}"
                )
        return "\n".join(lines)
