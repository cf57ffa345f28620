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

import dataclasses
import json
import pickle

import pytest

from repro.analysis.explorer import explore
from repro.cli import build_parser, main
from repro.core.sradgen import generate
from repro.engine.jobs import Campaign, EvalJob
from repro.engine.runner import EvalRecord
from repro.flow import DEFAULT_SPEC, FlowSpec, opt_label_suffix
from repro.generators.srag_design import SragDesign
from repro.synth.cell_library import STD018, get_library
from repro.synth.flow import run_synthesis_flow
from repro.workloads.fifo import fifo_pattern, incremental_sequence
from repro.workloads.motion_estimation import read_sequence


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_spec_defaults_and_immutability():
    spec = FlowSpec()
    assert spec == DEFAULT_SPEC
    assert (spec.library, spec.max_fanout, spec.max_fsm_states) == ("std018", 8, 512)
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
        dict(max_fanout=1),
        dict(opt_level=-1),
        dict(power_cycles=-5),
        dict(max_fsm_states=0),
        dict(lint=-1),
        dict(opt_level=True),
        dict(max_fanout="8"),
        dict(library=3.14),
    ],
)
def test_spec_rejects_invalid_values(bad):
    with pytest.raises((KeyError, ValueError, TypeError)):
        FlowSpec(**bad)


def test_spec_accepts_a_library_object_and_normalises_to_its_name():
    assert FlowSpec(library=STD018).library == "std018"
    assert FlowSpec(library=get_library("std018_lp")).library == "std018_lp"


def test_spec_registers_unseen_library_objects_under_qualified_names():
    """An ad-hoc characterisation stays serialisable and collision-proof."""
    corner = STD018.scaled("flow_spec_test_corner", area_scale=2.0)
    spec = FlowSpec(library=corner)
    assert spec.library.startswith("flow_spec_test_corner#")
    assert spec.resolve_library() is corner
    # Round-tripping through the canonical dict finds the same library.
    assert FlowSpec.from_spec(spec.to_spec()) == spec


# ---------------------------------------------------------------------------
# Canonical serialisation
# ---------------------------------------------------------------------------

def test_to_spec_omits_post_seed_fields_at_their_defaults():
    assert FlowSpec().to_spec() == {
        "library": "std018",
        "max_fanout": 8,
        "max_fsm_states": 512,
    }
    loaded = FlowSpec(opt_level=1, power_cycles=64, lint=1, verify=1)
    assert loaded.to_spec() == {
        "library": "std018",
        "max_fanout": 8,
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
        FlowSpec(library="std018_fast", max_fanout=4),
        FlowSpec(opt_level=1, power_cycles=256, max_fsm_states=64),
        FlowSpec(lint=1, verify=2),
    ):
        assert FlowSpec.from_spec(spec.to_spec()) == spec
    with pytest.raises(ValueError, match="effort_tier"):
        FlowSpec.from_spec({"library": "std018", "effort_tier": "high"})


def test_with_overrides_skips_none_and_rejects_unknown_fields():
    spec = FlowSpec(opt_level=1)
    assert spec.with_overrides(opt_level=None, library=None) is spec
    derived = spec.with_overrides(library="std018_lp", power_cycles=32)
    assert (derived.library, derived.power_cycles, derived.opt_level) == (
        "std018_lp", 32, 1,
    )
    with pytest.raises(TypeError):
        spec.with_overrides(effort_tier="high")


def test_from_cli_args_reads_namespace_fields():
    parser = build_parser()
    args = parser.parse_args(
        ["--workload", "fifo", "--rows", "4", "--cols", "4",
         "--opt-level", "1", "--max-fsm-states", "99"]
    )
    spec = FlowSpec.from_cli_args(args)
    assert spec == FlowSpec(opt_level=1, max_fsm_states=99)
    defaults = parser.parse_args(["--workload", "fifo", "--rows", "4", "--cols", "4"])
    assert FlowSpec.from_cli_args(defaults) == FlowSpec()


def test_opt_label_suffix_shared_by_jobs_and_records():
    assert opt_label_suffix(0) == ""
    assert opt_label_suffix(1) == " O1"
    assert FlowSpec(opt_level=1).label_suffix == " O1"
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
        FlowSpec(library="std018_lp", max_fanout=4, max_fsm_states=1024,
                 power_cycles=128, opt_level=1),
    )
    assert job.key == (
        "206dcc12212e7b9bbb89c3675d115664b13a9821a372ec270b9a138c064d0913"
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
    by_object = design.synthesize(FlowSpec(library=get_library("std018_lp")))
    by_name = design.synthesize(spec=FlowSpec(library="std018_lp"))
    assert (by_object.area_cells, by_object.delay_ns, by_object.buffers_inserted) == (
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
    assert (job.library, job.power_cycles, job.opt_level) == ("std018_lp", 64, 1)
    assert job.max_fanout == 8 and job.max_fsm_states == 512


def test_legacy_keywords_layer_on_top_of_an_explicit_spec():
    """Overrides layer onto a spec through FlowSpec.with_overrides, not EvalJob."""
    spec = FlowSpec(library="std018_lp", opt_level=1)
    with pytest.raises(TypeError):
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", spec, power_cycles=16)
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", spec.with_overrides(power_cycles=16))
    assert (job.library, job.opt_level, job.power_cycles) == ("std018_lp", 1, 16)


def test_eval_job_pickles_without_warning(recwarn):
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot",
                  FlowSpec(library="std018_lp", power_cycles=64, opt_level=1))
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job and clone.key == job.key
    assert not recwarn.list
    # The spec's knobs read through as job attributes.
    assert (clone.library, clone.max_fanout, clone.max_fsm_states,
            clone.power_cycles, clone.opt_level) == ("std018_lp", 8, 512, 64, 1)


def test_synthesize_accepts_a_positional_spec():
    design = SragDesign(incremental_sequence(32))
    positional = design.synthesize(FlowSpec(max_fanout=4))
    keyword = design.synthesize(spec=FlowSpec(max_fanout=4))
    assert (positional.area_cells, positional.delay_ns) == (keyword.area_cells, keyword.delay_ns)
    with pytest.raises(TypeError, match="spec"):
        design.synthesize(FlowSpec(), spec=FlowSpec())


def test_ephemeral_library_specs_survive_pickling_into_fresh_registries(monkeypatch):
    """Worker processes on spawn-start platforms build their registry from
    scratch; a spec naming an ad-hoc corner must carry it along."""
    from repro.synth.cell_library import LIBRARIES

    corner = STD018.scaled("pickle_test_corner", area_scale=1.5)
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(library=corner))
    payload = pickle.dumps(job)
    # Simulate the fresh process: the qualified name is unknown there.
    monkeypatch.delitem(LIBRARIES, job.spec.library)
    clone = pickle.loads(payload)
    assert clone.key == job.key  # key needs the fingerprint -> the library
    assert clone.spec.resolve_library().cells == corner.cells


# ---------------------------------------------------------------------------
# CLI integration: --max-fsm-states routed through FlowSpec.from_cli_args
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


def test_cli_max_fsm_states_bounds_exploration(capsys):
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore"]) == 0
    assert "FSM[" in capsys.readouterr().out
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore", "--max-fsm-states", "1"]) == 0
    assert "FSM[" not in capsys.readouterr().out
