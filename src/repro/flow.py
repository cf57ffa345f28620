"""``FlowSpec`` -- one canonical configuration object for the whole stack.

Every evaluation knob the synthesis/evaluation stack understands lives in
exactly one place: a frozen, validated, serialisable :class:`FlowSpec`.  The
public entry points all accept ``spec=FlowSpec(...)`` and hand the same
object down:

* :func:`repro.synth.flow.run_synthesis_flow` -- the flow itself;
* :meth:`repro.generators.base.AddressGeneratorDesign.synthesize` -- one
  design through the flow (:func:`repro.core.sradgen.generate` uses it);
* :func:`repro.engine.runner.evaluate_point` -- the one point evaluator,
  behind both :class:`repro.engine.jobs.EvalJob` (and so
  :meth:`repro.engine.jobs.Campaign.from_grid`) and
  :func:`repro.analysis.explorer.explore`.

Adding a future knob (a synthesis effort tier, a buffering strategy, a
power-engine selector) is therefore one field here instead of a six-file
threading exercise.

A spec is a plain value: its cell library is a name registered in
:data:`repro.synth.cell_library.LIBRARIES`, and a derived spec is
``dataclasses.replace(spec, ...)``, which re-runs the validation.

Serialisation is canonical and *default-omitting*: fields that post-date the
seed (``opt_level``, ``power_cycles``, ...) stay out of :meth:`FlowSpec.to_spec`
at their default values, so every cache key and JSONL record minted before
the field existed survives byte-for-byte.  Fields that have been hashed
since the seed (``library``, ``max_fsm_states``) are always present, for the
same reason.  The seed's third always-hashed value, the buffering threshold,
is the constant :data:`repro.synth.buffering.MAX_FANOUT`, which
:meth:`repro.engine.jobs.EvalJob.to_spec` still writes into every key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping

__all__ = [
    "DEFAULT_SPEC",
    "FlowSpec",
    "cli_overrides",
    "opt_label_suffix",
]


def opt_label_suffix(opt_level: int) -> str:
    """Display suffix for an optimization level: ``" O1"``, or ``""`` at O0.

    Shared by ``EvalJob.label`` and ``EvalRecord.label`` so every report
    styles the opt axis identically.
    """
    return f" O{opt_level}" if opt_level else ""


def _always(default: Any) -> Any:
    """A spec field that is serialised unconditionally (hashed since the seed)."""
    return field(default=default)


def _since_seed(default: Any, **extra_metadata: Any) -> Any:
    """A spec field added after the seed: omitted from the canonical dict at
    its default, so pre-existing cache keys and records are byte-identical."""
    return field(default=default, metadata={"omit_default": True, **extra_metadata})


@dataclass(frozen=True)
class FlowSpec:
    """Single source of truth for every synthesis/evaluation knob.

    Six fields: four say what gets evaluated, and ``lint``/``verify`` say
    which diagnostics ride along.  Neither the buffering threshold
    (:data:`repro.synth.buffering.MAX_FANOUT`) nor the symbolic-FSM
    encodings (:data:`repro.engine.jobs.FSM_ENCODINGS`) is a knob.

    Attributes
    ----------
    library:
        Name of a library registered in
        :data:`repro.synth.cell_library.LIBRARIES` (which is filled once, at
        import).  Only a name is accepted: a spec is plain data that hashes,
        pickles and crosses the service wire as it is.
    opt_level:
        Logic-optimization effort: 0 = raw netlist, 1 = full
        :mod:`repro.synth.opt` pipeline.  No other value exists.
    power_cycles:
        Simulated cycles for the switching-activity power study; 0 disables
        it.  Consumed by :func:`repro.engine.runner.evaluate_point` (campaign
        jobs and ``--explore``); plain synthesis ignores it.
    max_fsm_states:
        Symbolic-FSM candidates are skipped for sequences longer than this.
    lint:
        Run the design-rule checker (:mod:`repro.lint.design`) on the
        synthesised netlist (0 = off).  A *diagnostic* knob: it reports on
        the result without changing it, so it never enters job cache keys,
        and cached records satisfy a linted request bit-for-bit.
    verify:
        Formally verify (SAT-based CEC, :mod:`repro.verify`) that the
        synthesised netlist is equivalent to the pre-flow netlist (0 =
        off).  Also a *diagnostic* knob with the same contract as ``lint``:
        it proves a property of the result without changing it, so it never
        enters job cache keys or serialised records.

    Adding a future axis is one field here: give it a default, declare it
    with :func:`_since_seed`, and every entry point, cache key, CLI override
    and grid builder picks it up.
    """

    library: str = _always("std018")
    opt_level: int = _since_seed(0)
    power_cycles: int = _since_seed(0)
    max_fsm_states: int = _always(512)
    lint: int = _since_seed(0, job_key=False)
    verify: int = _since_seed(0, job_key=False)

    # ---------------------------------------------------------- validation
    def __post_init__(self) -> None:
        if not isinstance(self.library, str):
            raise TypeError(
                f"library must be a registered library name, got {self.library!r}"
            )
        self.resolve_library()  # raises KeyError listing the known names
        self._check_int("opt_level", minimum=0)
        if self.opt_level > 1:
            raise ValueError(f"opt_level must be 0 or 1, got {self.opt_level}")
        self._check_int("power_cycles", minimum=0)
        self._check_int("max_fsm_states", minimum=1)
        self._check_int("lint", minimum=0)
        self._check_int("verify", minimum=0)

    def _check_int(self, name: str, *, minimum: int) -> None:
        value = getattr(self, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")

    # ------------------------------------------------------- serialisation
    def to_spec(self, *, job_key: bool = False) -> Dict[str, Any]:
        """Canonical dictionary form of the spec.

        Fields marked ``omit_default`` are dropped at their default value --
        the contract that keeps every pre-``FlowSpec`` cache key and record
        byte-identical.  With ``job_key=True``, enumeration-only fields
        (``job_key: False`` metadata) are dropped too: they select *which*
        jobs exist, not how one evaluates, so they must not perturb cache
        keys.
        """
        spec: Dict[str, Any] = {}
        for spec_field in fields(self):
            if job_key and not spec_field.metadata.get("job_key", True):
                continue
            value = getattr(self, spec_field.name)
            if spec_field.metadata.get("omit_default") and value == spec_field.default:
                continue
            spec[spec_field.name] = value
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "FlowSpec":
        """Rebuild a spec from :meth:`to_spec` output (exact round-trip).

        Missing fields take their defaults (how old serialised specs gain
        new fields); unknown fields raise ``ValueError`` rather than being
        silently dropped.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(f"unknown FlowSpec field(s): {', '.join(unknown)}")
        return cls(**dict(spec))

    # ---------------------------------------------------------- conveniences
    def resolve_library(self):
        """The :class:`~repro.synth.cell_library.CellLibrary` this spec names."""
        from repro.synth.cell_library import get_library

        return get_library(self.library)


def cli_overrides(namespace: Any) -> Dict[str, Any]:
    """Spec fields explicitly set on an argparse namespace (``None`` = unset).

    Reads every attribute named after a spec field, so a new flag is wired
    in by giving it ``dest=<field name>``.
    """
    overrides: Dict[str, Any] = {}
    for spec_field in fields(FlowSpec):
        value = getattr(namespace, spec_field.name, None)
        if value is not None:
            overrides[spec_field.name] = value
    return overrides


#: The all-defaults spec (module-level so un-configured call paths share one
#: instance instead of re-validating a fresh ``FlowSpec()`` each call).
DEFAULT_SPEC = FlowSpec()
