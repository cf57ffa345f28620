"""Declarative evaluation jobs and campaigns.

A campaign is a grid of *jobs*; a job is one point of the design space the
paper closes on -- "discover algorithms and heuristics which can explore the
vast design space opened up by address decoder decoupling":

    workload x array geometry x generator style x cell library (x FSM encoding)

Jobs are pure data: every field is a name or a number, so a job can be
hashed, written to disk, shipped to a worker process and rebuilt there.  The
bridge from data back to objects lives here too -- :func:`build_design`
instantiates the generator a job describes, and :func:`candidate_factories`
enumerates every architecture applicable to a pattern (the explorer and the
campaign factories share this single list).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.flow import DEFAULT_SPEC, FlowSpec, opt_label_suffix
from repro.synth.buffering import MAX_FANOUT
from repro.synth.cell_library import library_fingerprint
from repro.workloads.loopnest import AffineAccessPattern
from repro.workloads.registry import build_pattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.generators.base import AddressGeneratorDesign

__all__ = [
    "Campaign",
    "EvalJob",
    "FSM_ENCODINGS",
    "STYLE_VARIANTS",
    "build_design",
    "candidate_factories",
]

#: Every (style, variant) pair the library can build.  ``FSM`` variants are
#: the state encodings.
STYLE_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("SRAG", "two-hot"),
    ("CntAG", "decoders"),
    ("CntAG", "adders"),
    ("ArithAG", "binary"),
    ("SFM", "pointers"),
    ("FSM", "binary"),
    ("FSM", "gray"),
    ("FSM", "onehot"),
)

#: Symbolic-FSM state encodings explored per workload.
FSM_ENCODINGS: Tuple[str, ...] = ("binary", "gray", "onehot")

#: Bump when the meaning of a job spec (or of the recorded metrics) changes
#: incompatibly; old cache entries then stop matching.
SPEC_VERSION = 1


def _spec_digest(spec: dict) -> str:
    """sha256 of a job spec's canonical JSON: the job key (see :attr:`EvalJob.key`)."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def candidate_factories(
    pattern: AffineAccessPattern,
    *,
    max_fsm_states: int = 512,
) -> List[Tuple[str, str, Callable[[], AddressGeneratorDesign]]]:
    """Enumerate ``(style, variant, factory)`` for every applicable architecture.

    This is the single candidate list behind both the interactive explorer
    and campaign grids.  Factories may raise ``MappingError`` /
    ``NetlistError`` / ``ValueError`` for patterns an architecture cannot
    implement; callers record those as skipped points.

    Symbolic-FSM variants are omitted for sequences longer than
    ``max_fsm_states`` to keep evaluation time bounded (the blow-up itself is
    measured by the synthesis-effort benchmark instead).
    """
    # Imported here, not at module top, so the campaign registry (and with
    # it ``sradgen --list-campaigns``) never loads the FSM/QM stack.
    from repro.generators.arithmetic import ArithmeticAddressGenerator
    from repro.generators.counter_based import CounterBasedAddressGenerator
    from repro.generators.fsm_based import FsmAddressGenerator
    from repro.generators.sfm_pointer import SfmPointerGenerator
    from repro.generators.srag_design import SragDesign

    sequence = pattern.to_sequence()
    candidates: List[Tuple[str, str, Callable[[], AddressGeneratorDesign]]] = [
        ("SRAG", "two-hot", lambda: SragDesign(sequence)),
        ("CntAG", "decoders", lambda: CounterBasedAddressGenerator(pattern)),
        (
            "CntAG",
            "adders",
            lambda: CounterBasedAddressGenerator(pattern, use_concatenation=False),
        ),
        ("ArithAG", "binary", lambda: ArithmeticAddressGenerator(sequence)),
        ("SFM", "pointers", lambda: SfmPointerGenerator(sequence)),
    ]
    if sequence.length <= max_fsm_states:
        for encoding in FSM_ENCODINGS:
            candidates.append(
                (
                    "FSM",
                    encoding,
                    lambda enc=encoding: FsmAddressGenerator(
                        sequence, encoding=enc, output_style="two_hot"
                    ),
                )
            )
    return candidates


def build_design(
    pattern: AffineAccessPattern, style: str, variant: str
) -> AddressGeneratorDesign:
    """Instantiate the generator ``(style, variant)`` describes for ``pattern``.

    Raises ``KeyError`` for unknown style/variant pairs and whatever the
    generator's constructor raises for inapplicable patterns.
    """
    for cand_style, cand_variant, factory in candidate_factories(
        pattern, max_fsm_states=2 ** 31
    ):
        if cand_style == style and cand_variant == variant:
            return factory()
    raise KeyError(f"unknown architecture {style}[{variant}]")


@dataclass(frozen=True)
class EvalJob:
    """One design-space point: evaluate one architecture for one workload.

    The identity of the point is ``(workload, rows, cols, style, variant)``;
    every evaluation knob lives in ``spec`` (:class:`repro.flow.FlowSpec`).
    All fields are plain data so the job survives pickling into worker
    processes and JSON round-trips through the result cache.

    ``spec.power_cycles > 0`` additionally runs the switching-activity power
    study (on the compiled simulator) over that many cycles; the resulting
    record then carries ``energy_per_access_fj`` / ``avg_power_uw``.
    ``spec.opt_level > 0`` runs the logic-optimization pipeline
    (:mod:`repro.synth.opt`) before buffering and timing, so area/delay
    figures describe the netlist a real synthesis tool would report on.
    """

    workload: str
    rows: int
    cols: int
    style: str
    variant: str
    spec: FlowSpec = DEFAULT_SPEC

    def __post_init__(self) -> None:
        # Jobs arrive from grids, the CLI and the service wire: reject
        # anything but a spec here rather than deep inside a worker.
        if not isinstance(self.spec, FlowSpec):
            raise TypeError(f"EvalJob: spec must be a FlowSpec, got {self.spec!r}")

    def to_spec(self) -> dict:
        """Canonical dictionary form of the job (what gets hashed).

        The knob fields come from :meth:`FlowSpec.to_spec`, whose
        omit-at-default contract keeps every pre-``FlowSpec`` key stable;
        the job adds its identity fields, a fingerprint of the cell
        library's characterisation and the buffering threshold, which every
        key has carried since the seed.
        """
        spec = {
            "version": SPEC_VERSION,
            "workload": self.workload,
            "rows": self.rows,
            "cols": self.cols,
            "style": self.style,
            "variant": self.variant,
            "library_fingerprint": library_fingerprint(self.spec.resolve_library()),
            "max_fanout": MAX_FANOUT,
        }
        spec.update(self.spec.to_spec(job_key=True))
        return spec

    @property
    def key(self) -> str:
        """Stable content-hash key identifying this job.

        The key covers the full spec including a fingerprint of the cell
        library's characterisation, so recalibrating a library (or bumping
        ``SPEC_VERSION``) invalidates stale cache entries.

        It is computed once per job object: the job is frozen and a
        library name in the registry stands for one characterisation for
        the life of the process.  The memo is no part of the job's
        identity and is never pickled.
        """
        key = self.__dict__.get("_key_memo")
        if key is None:
            key = _spec_digest(self.to_spec())
            object.__setattr__(self, "_key_memo", key)
        return key

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_key_memo", None)
        return state

    @property
    def label(self) -> str:
        """Compact display label, e.g. ``fifo 8x8 SRAG[two-hot] @std018 O1``."""
        return (
            f"{self.workload} {self.rows}x{self.cols} "
            f"{self.style}[{self.variant}] @{self.spec.library}"
            f"{opt_label_suffix(self.spec.opt_level)}"
        )

    def pattern(self) -> AffineAccessPattern:
        """Build the access pattern this job evaluates."""
        return build_pattern(self.workload, self.rows, self.cols)


@dataclass
class Campaign:
    """A named batch of evaluation jobs.

    Attributes
    ----------
    name:
        Campaign name (used for reporting and as the CLI handle).
    jobs:
        The evaluation grid, in a deterministic order.

    A registered campaign's one-line description lives in the registry
    (:func:`repro.engine.sweep.campaign_description`), not on the object.
    """

    name: str
    jobs: List[EvalJob] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @classmethod
    def from_grid(
        cls,
        name: str,
        *,
        workloads: Sequence[str],
        geometries: Sequence[Tuple[int, int]],
        styles: Optional[Sequence[Tuple[str, str]]] = None,
        libraries: Optional[Sequence[str]] = None,
        spec: FlowSpec = DEFAULT_SPEC,
    ) -> "Campaign":
        """Expand a full cross-product grid into a campaign.

        ``styles`` defaults to every architecture the library knows
        (:data:`STYLE_VARIANTS`); architectures that turn out to be
        inapplicable to a particular workload are recorded as skipped at
        evaluation time rather than excluded up front.  ``libraries`` is a
        grid *axis* (one job per library per point); it defaults to the
        single ``spec.library``.

        Every other knob comes from ``spec`` (:class:`repro.flow.FlowSpec`),
        shared by every job in the grid: a non-zero ``spec.power_cycles``
        additionally runs the switching-activity power study over that many
        simulated cycles at every grid point; a non-zero ``spec.opt_level``
        runs logic optimization at every grid point.
        """
        chosen = tuple(styles) if styles is not None else STYLE_VARIANTS
        library_axis = tuple(libraries) if libraries is not None else (spec.library,)
        jobs = [
            EvalJob(
                workload=workload,
                rows=rows,
                cols=cols,
                style=style,
                variant=variant,
                spec=replace(spec, library=library),
            )
            for workload in workloads
            for rows, cols in geometries
            for library in library_axis
            for style, variant in chosen
        ]
        return cls(name=name, jobs=jobs)

    def extended(self, other: Iterable[EvalJob]) -> "Campaign":
        """A copy of this campaign with extra jobs appended."""
        return replace(self, jobs=self.jobs + list(other))
