"""Tests for :mod:`repro.flow` -- the canonical FlowSpec configuration object.

Three contracts matter here:

* **Validation and round-tripping** -- a spec is frozen, validated on
  construction, and ``from_spec(to_spec())`` is the identity.
* **Cache-key stability** -- the golden-key tests pin literal SHA-256 digests
  for a legacy job and a fully-loaded job, so no future ``FlowSpec`` edit can
  silently invalidate every on-disk campaign cache.  The same applies to the
  ``EvalRecord`` dictionary form.
* **One configuration path** -- ``spec=`` is the only way in: the removed
  pre-``FlowSpec`` loose keywords and positional-library forms raise
  ``TypeError`` on every entry point.
"""

import argparse
import dataclasses
import json
import pickle

import pytest

from repro.analysis.explorer import explore
from repro.cli import build_parser, main
from repro.core.sradgen import generate
from repro.engine.jobs import Campaign, EvalJob
from repro.engine.records import EvalRecord
from repro.flow import DEFAULT_SPEC, FlowSpec, cli_overrides, opt_label_suffix
from repro.generators.srag_design import SragDesign
from repro.synth.cell_library import LIBRARIES, STD018, get_library
from repro.synth.flow import run_synthesis_flow
from repro.workloads.fifo import fifo_pattern, incremental_sequence
from repro.workloads.motion_estimation import read_sequence


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_spec_defaults_and_immutability():
    spec = FlowSpec()
    assert spec == DEFAULT_SPEC
    assert (spec.library, spec.max_fsm_states) == ("std018", 512)
    assert spec.opt_level == 0 and spec.power_cycles == 0
    assert spec.lint == 0 and spec.verify == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.opt_level = 1
    # Hashable: specs can key dicts/sets (and so can jobs embedding them).
    assert len({FlowSpec(), FlowSpec(opt_level=1)}) == 2


@pytest.mark.parametrize(
    "bad",
    [
        dict(library="no_such_library"),
        dict(opt_level=2),
        dict(opt_level=-1),
        dict(power_cycles=-5),
        dict(max_fsm_states=0),
        dict(lint=-1),
        dict(opt_level=True),
        dict(max_fsm_states="8"),
        dict(library=3.14),
    ],
)
def test_spec_rejects_invalid_values(bad):
    with pytest.raises((KeyError, ValueError, TypeError)):
        FlowSpec(**bad)


def test_spec_accepts_a_library_object_and_normalises_to_its_name():
    """A library is a registered name, never an object: ``FlowSpec`` and
    ``dataclasses.replace`` refuse a ``CellLibrary`` (the removed
    normalisation to its name), and the name resolves to that object."""
    for library in (STD018, get_library("std018_lp")):
        with pytest.raises(TypeError, match="registered library name"):
            FlowSpec(library=library)
        with pytest.raises(TypeError, match="registered library name"):
            dataclasses.replace(DEFAULT_SPEC, library=library)
        assert FlowSpec(library=library.name).resolve_library() is library


def test_spec_registers_unseen_library_objects_under_qualified_names():
    """No spec writes the registry (the removed ``name#fingerprint``
    registration): an ad-hoc corner is refused as an object and unknown by
    name, and ``LIBRARIES`` keeps the keys it was filled with at import."""
    registered = list(LIBRARIES)
    corner = STD018.scaled("flow_spec_test_corner", area_scale=2.0)
    with pytest.raises(TypeError, match="registered library name"):
        FlowSpec(library=corner)
    with pytest.raises(TypeError, match="registered library name"):
        dataclasses.replace(DEFAULT_SPEC, library=corner)
    with pytest.raises(KeyError, match="flow_spec_test_corner"):
        FlowSpec(library=corner.name)
    assert list(LIBRARIES) == registered


def test_ephemeral_library_specs_survive_pickling_into_fresh_registries():
    """A job ships its library's name alone (the removed custom pickling
    shipped ad-hoc libraries) and resolves it again after unpickling."""
    registered = list(LIBRARIES)
    spec = FlowSpec(library="std018_lp")
    assert FlowSpec.from_spec(spec.to_spec()) == spec
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", spec)
    clone = pickle.loads(pickle.dumps(job))
    assert clone.key == job.key
    assert clone.spec.resolve_library() is get_library("std018_lp")
    assert list(LIBRARIES) == registered


# ---------------------------------------------------------------------------
# Canonical serialisation
# ---------------------------------------------------------------------------

def test_to_spec_omits_post_seed_fields_at_their_defaults():
    assert FlowSpec().to_spec() == {
        "library": "std018",
        "max_fsm_states": 512,
    }
    loaded = FlowSpec(opt_level=1, power_cycles=64, lint=1, verify=1)
    assert loaded.to_spec() == {
        "library": "std018",
        "max_fsm_states": 512,
        "opt_level": 1,
        "power_cycles": 64,
        "lint": 1,
        "verify": 1,
    }
    # Diagnostic knobs never reach job cache keys.
    keyed = loaded.to_spec(job_key=True)
    assert "lint" not in keyed and "verify" not in keyed


def test_from_spec_round_trips_and_rejects_unknown_fields():
    for spec in (
        FlowSpec(),
        FlowSpec(library="std018_fast"),
        FlowSpec(opt_level=1, power_cycles=256, max_fsm_states=64),
        FlowSpec(lint=1, verify=2),
    ):
        assert FlowSpec.from_spec(spec.to_spec()) == spec
    with pytest.raises(ValueError, match="effort_tier"):
        FlowSpec.from_spec({"library": "std018", "effort_tier": "high"})


def test_with_overrides_skips_none_and_rejects_unknown_fields():
    """A derived spec is ``dataclasses.replace`` (the removed
    ``FlowSpec.with_overrides``): unset flags never reach it, because
    ``cli_overrides`` drops them, and it re-runs the validation."""
    spec = FlowSpec(opt_level=1)
    unset = argparse.Namespace(opt_level=None, library=None)
    assert cli_overrides(unset) == {}
    assert dataclasses.replace(spec, **cli_overrides(unset)) == spec
    derived = dataclasses.replace(spec, library="std018_lp", power_cycles=32)
    assert (derived.library, derived.power_cycles, derived.opt_level) == (
        "std018_lp", 32, 1,
    )
    with pytest.raises(TypeError):
        dataclasses.replace(spec, effort_tier="high")
    with pytest.raises(KeyError):
        dataclasses.replace(spec, library="no_such_library")


def test_from_cli_args_reads_namespace_fields():
    """The CLI's one spec is ``replace(DEFAULT_SPEC, **cli_overrides(args))``."""
    parser = build_parser()
    args = parser.parse_args(
        ["--workload", "fifo", "--rows", "4", "--cols", "4",
         "--opt-level", "1", "--max-fsm-states", "99"]
    )
    assert cli_overrides(args) == {"opt_level": 1, "max_fsm_states": 99}
    spec = dataclasses.replace(DEFAULT_SPEC, **cli_overrides(args))
    assert spec == FlowSpec(opt_level=1, max_fsm_states=99)
    defaults = parser.parse_args(["--workload", "fifo", "--rows", "4", "--cols", "4"])
    assert dataclasses.replace(DEFAULT_SPEC, **cli_overrides(defaults)) == FlowSpec()


def test_opt_label_suffix_shared_by_jobs_and_records():
    assert opt_label_suffix(0) == ""
    assert opt_label_suffix(1) == " O1"
    assert opt_label_suffix(FlowSpec(opt_level=1).opt_level) == " O1"
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(opt_level=1))
    assert job.label.endswith(" O1")


# ---------------------------------------------------------------------------
# Golden cache keys: literal digests pinned across FlowSpec refactors
# ---------------------------------------------------------------------------

def test_golden_key_legacy_job():
    """A default-knob job hashes exactly as it did before FlowSpec existed."""
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    assert job.key == (
        "7731f6f8aaf22a1697f00a431ea842b26809569477ff0966cb23caa498afd238"
    )
    assert json.dumps(job.to_spec(), sort_keys=True, separators=(",", ":")) == (
        '{"cols":4,"library":"std018","library_fingerprint":"614ba225acce9b14",'
        '"max_fanout":8,"max_fsm_states":512,"rows":4,"style":"SRAG",'
        '"variant":"two-hot","version":1,"workload":"fifo"}'
    )


def test_golden_key_fully_loaded_job():
    """Every optional knob engaged: the omit-at-default fields all appear."""
    job = EvalJob(
        "motion_est_read", 16, 16, "FSM", "gray",
        FlowSpec(library="std018_lp", max_fsm_states=1024,
                 power_cycles=128, opt_level=1),
    )
    assert job.key == (
        "ff768c3c365debbb9a9a7e658f34f1d20656ca7711af2d033a46a21222227fd0"
    )


def test_golden_record_serialisation():
    """The cached dictionary form of records is byte-identical to the seed era."""
    record = EvalRecord(
        workload="fifo", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k" * 64, status="ok", delay_ns=1.5,
        area_cells=650.0, flip_flops=10, total_cells=21, buffers_inserted=2,
        note="", duration_s=0.25,
    )
    assert json.dumps(record.to_dict(), sort_keys=True) == (
        '{"area_cells": 650.0, "buffers_inserted": 2, "cols": 4, '
        '"delay_ns": 1.5, "duration_s": 0.25, "flip_flops": 10, '
        f'"key": "{"k" * 64}", "library": "std018", "note": "", "rows": 4, '
        '"status": "ok", "style": "SRAG", "total_cells": 21, '
        '"variant": "two-hot", "workload": "fifo"}'
    )
    # Power/optimization fields only appear once those features opt in.
    powered = dataclasses.replace(
        record, energy_per_access_fj=12.5, avg_power_uw=3.5,
        opt_level=1, opt_cells_removed=4,
    )
    data = powered.to_dict()
    assert data["energy_per_access_fj"] == 12.5 and data["opt_level"] == 1
    assert EvalRecord.from_dict(record.to_dict()) == record


# ---------------------------------------------------------------------------
# Removed pre-FlowSpec forms: loose keywords and positional libraries
# ---------------------------------------------------------------------------

_GRID = dict(workloads=("fifo",), geometries=((4, 4),), styles=(("SRAG", "two-hot"),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_synthesis_flow(SragDesign(incremental_sequence(16)).netlist, opt_level=1),
        lambda: SragDesign(incremental_sequence(16)).synthesize(max_fanout=4),
        lambda: generate(read_sequence(4, 4, 2, 2), synthesize=True, opt_level=1),
        lambda: explore(fifo_pattern(4, 4), max_fsm_states=4),
        lambda: EvalJob("fifo", 4, 4, "SRAG", "two-hot", library="std018_lp"),
        lambda: Campaign.from_grid("g", power_cycles=32, **_GRID),
        lambda: SragDesign(incremental_sequence(16)).synthesize("std018"),
        lambda: EvalJob("fifo", 4, 4, "SRAG", "two-hot", "std018"),
    ],
    ids=[
        "run_synthesis_flow-keyword",
        "synthesize-keyword",
        "generate-keyword",
        "explore-keyword",
        "EvalJob-keyword",
        "from_grid-keyword",
        "synthesize-positional-library",
        "EvalJob-positional-library",
    ],
)
def test_removed_forms_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_synthesize_positional_library_warns_and_matches():
    """A library goes in through the spec; the spec form matches either way."""
    design = SragDesign(incremental_sequence(32))
    with pytest.raises(TypeError, match="spec must be a FlowSpec"):
        design.synthesize(get_library("std018_lp"))
    by_position = design.synthesize(FlowSpec(library="std018_lp"))
    by_name = design.synthesize(spec=FlowSpec(library="std018_lp"))
    assert (by_position.area_cells, by_position.delay_ns, by_position.buffers_inserted) == (
        by_name.area_cells, by_name.delay_ns, by_name.buffers_inserted,
    )


def test_synthesize_library_is_keyword_only_now():
    design = SragDesign(incremental_sequence(16))
    with pytest.raises(TypeError):
        design.synthesize(library=STD018)
    with pytest.raises(TypeError):
        design.synthesize(STD018, STD018)
    with pytest.raises(TypeError, match="spec must be a FlowSpec"):
        design.synthesize(STD018)


def test_eval_job_legacy_keywords():
    with pytest.raises(TypeError):
        EvalJob("fifo", 4, 4, "SRAG", "two-hot",
                library="std018_lp", power_cycles=64, opt_level=1)
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot",
                  FlowSpec(library="std018_lp", power_cycles=64, opt_level=1))
    spec = job.spec
    assert (spec.library, spec.power_cycles, spec.opt_level) == ("std018_lp", 64, 1)
    assert spec.max_fsm_states == 512


def test_legacy_keywords_layer_on_top_of_an_explicit_spec():
    """Overrides layer onto a spec through dataclasses.replace, not EvalJob."""
    spec = FlowSpec(library="std018_lp", opt_level=1)
    with pytest.raises(TypeError):
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", spec, power_cycles=16)
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", dataclasses.replace(spec, power_cycles=16))
    assert (job.spec.library, job.spec.opt_level, job.spec.power_cycles) == (
        "std018_lp", 1, 16
    )


def test_eval_job_pickles_without_warning(recwarn):
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot",
                  FlowSpec(library="std018_lp", power_cycles=64, opt_level=1))
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job and clone.key == job.key
    assert not recwarn.list
    # The spec's knobs survive the round trip.
    spec = clone.spec
    assert (spec.library, spec.max_fsm_states,
            spec.power_cycles, spec.opt_level) == ("std018_lp", 512, 64, 1)


def test_synthesize_accepts_a_positional_spec():
    design = SragDesign(incremental_sequence(32))
    positional = design.synthesize(FlowSpec(opt_level=1))
    keyword = design.synthesize(spec=FlowSpec(opt_level=1))
    assert (positional.area_cells, positional.delay_ns) == (keyword.area_cells, keyword.delay_ns)
    with pytest.raises(TypeError, match="spec"):
        design.synthesize(FlowSpec(), spec=FlowSpec())


# ---------------------------------------------------------------------------
# CLI integration: --max-fsm-states routed through cli_overrides
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["banana", "0", "-3", "2.5"])
def test_cli_rejects_garbage_max_fsm_states(value, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["--workload", "fifo", "--rows", "4", "--cols", "4",
             "--max-fsm-states", value]
        )
    err = capsys.readouterr().err
    assert "--max-fsm-states" in err


@pytest.mark.parametrize("level", [2, 7])
def test_opt_levels_above_one_are_rejected_not_aliased_to_o1(level, capsys):
    """Level 2 and up used to run the O1 pipeline under a new key and label."""
    with pytest.raises(ValueError, match="opt_level must be 0 or 1"):
        FlowSpec(opt_level=level)
    with pytest.raises(SystemExit) as raised:
        main(["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore",
              "--opt-level", str(level)])
    assert raised.value.code == 2
    assert "argument --opt-level: invalid choice" in capsys.readouterr().err


def test_cli_max_fsm_states_bounds_exploration(capsys):
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore"]) == 0
    assert "FSM[" in capsys.readouterr().out
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore", "--max-fsm-states", "1"]) == 0
    assert "FSM[" not in capsys.readouterr().out
