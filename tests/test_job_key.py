"""The job key is computed once per job object; records serialise directly.

``EvalJob.key`` remembers its digest on the job object, and
``EvalRecord.to_dict`` builds the cached dictionary
from a fixed field list.  These tests pin that both are invisible: every key
equals a fresh digest of the job's canonical spec, the memo never travels
in a pickle or takes part in a job's identity, and ``to_dict`` gives
exactly the dictionary (keys, order and values) the ``asdict``-then-pop form
gave.  ``tests/test_service.py`` counts the digests of a remote campaign.
"""

import hashlib
import json
import math
import pickle
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.engine import jobs as jobs_module
from repro.engine.jobs import EvalJob
from repro.engine.records import EvalRecord
from repro.engine.sweep import available_campaigns, build_campaign
from repro.flow import FlowSpec
from repro.service.protocol import job_to_wire

EXPECTED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

JOB = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
POWER_O1_JOB = EvalJob(
    "dct", 8, 8, "FSM", "gray", FlowSpec(library="std018_lp", power_cycles=64, opt_level=1)
)


def _fresh_key(job):
    payload = json.dumps(job.to_spec(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fresh_job(job):
    return EvalJob(job.workload, job.rows, job.cols, job.style, job.variant, job.spec)


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- the memo
def test_every_registered_job_key_is_a_fresh_digest_of_its_spec():
    for name in available_campaigns():
        for job in build_campaign(name).jobs:
            first = job.key
            assert job.key == first == _fresh_key(job), job.label


def test_registered_grids_keep_their_recorded_keys(expected):
    for name, keys in expected["campaigns"].items():
        campaign = build_campaign(name)
        assert sorted(job.key for job in campaign.jobs) == keys, name


def test_a_pickled_job_carries_no_memo():
    for job in (JOB, POWER_O1_JOB):
        never_keyed = _fresh_job(job)
        job.key
        assert "_key_memo" in vars(job)
        data = pickle.dumps(job)
        assert data == pickle.dumps(never_keyed)
        rebuilt = pickle.loads(data)
        assert "_key_memo" not in vars(rebuilt)
        assert rebuilt == job and rebuilt.key == job.key


def test_the_memo_is_not_part_of_the_job_identity():
    keyed, never_keyed = _fresh_job(POWER_O1_JOB), _fresh_job(POWER_O1_JOB)
    keyed.key
    assert keyed == never_keyed
    assert hash(keyed) == hash(never_keyed)
    assert repr(keyed) == repr(never_keyed)
    assert keyed.to_spec() == never_keyed.to_spec()
    assert job_to_wire(keyed) == job_to_wire(never_keyed)


def test_replace_gives_a_fresh_key():
    job = _fresh_job(JOB)
    job.key
    same = replace(job)
    assert "_key_memo" not in vars(same) and same.key == job.key
    moved = replace(job, rows=8, spec=FlowSpec(opt_level=1))
    assert "_key_memo" not in vars(moved)
    assert moved.key != job.key
    assert moved.key == _fresh_key(EvalJob("fifo", 8, 4, "SRAG", "two-hot", FlowSpec(opt_level=1)))


def test_a_job_is_hashed_once_per_job_object(monkeypatch):
    calls = []
    digest = jobs_module._spec_digest
    monkeypatch.setattr(
        jobs_module, "_spec_digest", lambda spec: calls.append(1) or digest(spec)
    )
    job = _fresh_job(JOB)
    for _ in range(5):
        job.key
    assert len(calls) == 1
    # An equal job is another object: it hashes once of its own.
    twin = _fresh_job(JOB)
    twin.key
    twin.key
    assert len(calls) == 2 and twin.key == job.key


# ------------------------------------------------------ record serialisation
def _asdict_then_pop(record):
    """The cached dictionary form as ``asdict`` used to build it."""
    data = asdict(record)
    data.pop("cached")
    data.pop("lint_findings")
    data.pop("verify_result")
    if not record.has_power:
        data.pop("energy_per_access_fj")
        data.pop("avg_power_uw")
    if not record.opt_level:
        data.pop("opt_level")
        data.pop("opt_cells_removed")
    return data


def _same_dict(got, want):
    assert list(got) == list(want)
    assert json.dumps(list(got.items())) == json.dumps(list(want.items()))


def test_to_dict_matches_the_asdict_form_for_every_expected_record(expected):
    assert len(expected["records"]) == 412
    for data in expected["records"].values():
        record = EvalRecord.from_dict({**data, "duration_s": 0.25}, cached=True)
        _same_dict(record.to_dict(), _asdict_then_pop(record))


def test_to_dict_drops_diagnostics_and_keeps_power_and_opt_fields():
    record = EvalRecord(
        workload="dct",
        rows=8,
        cols=8,
        style="FSM",
        variant="gray",
        library="std018_lp",
        key=POWER_O1_JOB.key,
        status="ok",
        delay_ns=1.25,
        area_cells=512.0,
        flip_flops=6,
        total_cells=40,
        buffers_inserted=3,
        energy_per_access_fj=12.5,
        avg_power_uw=3.75,
        opt_level=1,
        opt_cells_removed=7,
        duration_s=0.5,
        lint_findings=[{"rule": "fanout", "severity": "warning", "nets": ["n1"]}],
        verify_result={"status": "proven", "conflicts": 4},
    )
    data = record.to_dict()
    _same_dict(data, _asdict_then_pop(record))
    assert not {"cached", "lint_findings", "verify_result"} & set(data)
    assert data["opt_level"] == 1 and data["avg_power_uw"] == 3.75
    plain = replace(record, energy_per_access_fj=math.nan, avg_power_uw=math.nan, opt_level=0)
    _same_dict(plain.to_dict(), _asdict_then_pop(plain))
    assert "opt_level" not in plain.to_dict() and "avg_power_uw" not in plain.to_dict()
