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

Serialisation is canonical and *default-omitting*: fields that post-date the
seed (``opt_level``, ``power_cycles``, ...) stay out of :meth:`FlowSpec.to_spec`
at their default values, so every cache key and JSONL record minted before
the field existed survives byte-for-byte.  Fields that have been hashed
since the seed (``library``, ``max_fanout``, ``max_fsm_states``) are always
present, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping

__all__ = [
    "DEFAULT_SPEC",
    "FlowSpec",
    "cli_overrides",
    "opt_label_suffix",
]


def opt_label_suffix(opt_level: int) -> str:
    """Display suffix for an optimization level: ``" O1"``, or ``""`` at O0.

    Shared by :attr:`FlowSpec.label_suffix`, ``EvalJob.label`` and
    ``EvalRecord.label`` so every report styles the opt axis identically.
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

    Seven fields: five say what gets evaluated, and ``lint``/``verify`` say
    which diagnostics ride along.  The symbolic-FSM encodings are not a knob
    (:data:`repro.engine.jobs.FSM_ENCODINGS`).

    Attributes
    ----------
    library:
        Cell-library name (``repro.synth.cell_library.LIBRARIES``).  A
        :class:`~repro.synth.cell_library.CellLibrary` instance is also
        accepted and normalised to its registered name (unregistered
        libraries are registered under a fingerprint-qualified name so the
        spec stays serialisable).
    max_fanout:
        Maximum fanout before the flow inserts a buffer tree (>= 2).
    opt_level:
        Logic-optimization effort (0 = raw netlist, 1 = full
        :mod:`repro.synth.opt` pipeline).
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
    max_fanout: int = _always(8)
    opt_level: int = _since_seed(0)
    power_cycles: int = _since_seed(0)
    max_fsm_states: int = _always(512)
    lint: int = _since_seed(0, job_key=False)
    verify: int = _since_seed(0, job_key=False)

    # ---------------------------------------------------------- validation
    def __post_init__(self) -> None:
        from repro.synth.cell_library import CellLibrary, get_library

        if isinstance(self.library, CellLibrary):
            object.__setattr__(self, "library", _registered_name(self.library))
        elif isinstance(self.library, str):
            get_library(self.library)  # raises KeyError listing known names
        else:
            raise TypeError(
                f"library must be a name or a CellLibrary, got {self.library!r}"
            )
        self._check_int("max_fanout", minimum=2)
        self._check_int("opt_level", minimum=0)
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

    # ----------------------------------------------------------- derivation
    def with_overrides(self, **overrides: Any) -> "FlowSpec":
        """A copy with the given fields replaced.

        ``None`` means "keep the current value" (no field may legitimately
        be ``None``), which lets optional CLI flags be forwarded wholesale.  Unknown field names raise ``TypeError``.
        """
        supplied = {name: value for name, value in overrides.items() if value is not None}
        if not supplied:
            return self
        return replace(self, **supplied)

    @classmethod
    def from_cli_args(cls, namespace: Any) -> "FlowSpec":
        """The one spec a CLI invocation describes.

        Reads every attribute of ``namespace`` named after a spec field
        (``None`` or absent = flag not given, keep the default), so a new
        flag is wired in by giving it ``dest=<field name>``.
        """
        return cls().with_overrides(**cli_overrides(namespace))

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = dict(self.__dict__)
        if "#" in self.library:
            # Fingerprint-qualified corners exist only in this process's
            # registry; ship the characterisation itself so worker processes
            # (spawn-start platforms build a fresh registry) can re-register
            # it on arrival.
            state["_ephemeral_library"] = self.resolve_library()
        return state

    def __setstate__(self, state):
        library = state.pop("_ephemeral_library", None)
        if library is not None:
            from repro.synth.cell_library import LIBRARIES

            LIBRARIES.setdefault(state["library"], library)
        self.__dict__.update(state)

    # ---------------------------------------------------------- conveniences
    def resolve_library(self):
        """The :class:`~repro.synth.cell_library.CellLibrary` this spec names."""
        from repro.synth.cell_library import get_library

        return get_library(self.library)

    @property
    def label_suffix(self) -> str:
        """Suffix distinguishing non-default flows in display labels."""
        return opt_label_suffix(self.opt_level)


def _registered_name(library: Any) -> str:
    """Name under which ``library`` can be looked up again.

    Registered libraries map to their own name.  An unregistered
    characterisation (a scaled corner built on the fly, say) is registered
    under ``"<name>#<fingerprint>"`` so specs referencing it stay
    serialisable and cannot collide with a different characterisation of the
    same name.
    """
    from repro.synth.cell_library import LIBRARIES, library_fingerprint

    registered = LIBRARIES.get(library.name)
    if registered is not None and (
        registered is library
        or library_fingerprint(registered) == library_fingerprint(library)
    ):
        return library.name
    qualified = f"{library.name}#{library_fingerprint(library)[:8]}"
    LIBRARIES.setdefault(qualified, library)
    return qualified


def cli_overrides(namespace: Any) -> Dict[str, Any]:
    """Spec fields explicitly set on an argparse namespace (``None`` = unset)."""
    overrides: Dict[str, Any] = {}
    for spec_field in fields(FlowSpec):
        value = getattr(namespace, spec_field.name, None)
        if value is not None:
            overrides[spec_field.name] = value
    return overrides


#: The all-defaults spec (module-level so un-configured call paths share one
#: instance instead of re-validating a fresh ``FlowSpec()`` each call).
DEFAULT_SPEC = FlowSpec()
