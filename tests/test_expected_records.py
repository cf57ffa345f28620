"""Recompute a seconds-scale slice of ``perfbench/expected.json`` in-process.

``expected.json`` holds every record the benchmark's campaigns persist, and
only benchmark runs read it.  Here the ``demo``, ``opt_levels`` and
``power`` grids are evaluated serially against an in-memory cache and every
record is compared exactly, so a change that moves any reported figure --
a delay's last bit included -- fails tier-1 on every interpreter the suite
runs on.  Records compare as canonical JSON, so the NaN metrics of skipped
points compare equal.

One base class holds the checks; each subclass names a grid and states its
size and outcome counts as literals.  ``RECORDS_SHA256`` pins the whole of
``expected.json``'s ``records`` to the ``SPEC_VERSION`` they were recorded
under, so re-recording any metric without a version bump fails too.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path
from unittest import TestCase

from repro.engine.cache import ResultCache
from repro.engine.jobs import SPEC_VERSION
from repro.engine.runner import CampaignRunner
from repro.engine.sweep import build_campaign

EXPECTED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

#: sha256 of the canonical JSON of ``expected.json``'s ``records``, by the
#: ``SPEC_VERSION`` they describe.  A change to any recorded figure must bump
#: ``SPEC_VERSION`` (stale cache entries then stop matching) and add its
#: digest here.
RECORDS_SHA256 = {
    1: "03483f6e89c2d397ead102b0374b885c3254e49938bb70d5b17dafcaafd44a75",
}

#: Record fields that vary run to run and are never compared.
VOLATILE_FIELDS = ("duration_s",)


def _canonical(record: dict) -> str:
    return json.dumps(
        {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}, sort_keys=True
    )


class TestRecordsDigest(TestCase):
    def test_records_are_pinned_to_the_spec_version(self):
        records = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["records"]
        canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self.assertIn(SPEC_VERSION, RECORDS_SHA256, msg="no digest pinned for this SPEC_VERSION")
        self.assertEqual(digest, RECORDS_SHA256[SPEC_VERSION])


class CommonGridTests:
    """Shared checks; a subclass sets ``campaign``, ``jobs`` and ``statuses``."""

    campaign = ""
    jobs = 0
    statuses = {}

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        cls.expected_keys = expected["campaigns"][cls.campaign]
        cls.expected = {key: expected["records"][key] for key in cls.expected_keys}
        cache = ResultCache(None)
        with CampaignRunner(cache, workers=0) as runner:
            runner.run(build_campaign(cls.campaign))
        cls.records = {key: cache.get(key) for key in cache.keys()}

    def test_job_keys_are_the_expected_keys(self):
        self.assertEqual(len(self.records), self.jobs)
        self.assertEqual(sorted(self.records), self.expected_keys)

    def test_statuses(self):
        counts = Counter(record["status"] for record in self.records.values())
        self.assertEqual(dict(counts), self.statuses)

    def test_every_record_is_the_expected_record(self):
        differing = [
            key
            for key, want in self.expected.items()
            if _canonical(self.records[key]) != _canonical(want)
        ]
        first = differing[0] if differing else None
        self.assertEqual(
            differing,
            [],
            msg=first and f"\n got  {_canonical(self.records[first])}"
            f"\n want {_canonical(self.expected[first])}",
        )


class TestDemoRecords(CommonGridTests, TestCase):
    campaign = "demo"
    jobs = 96
    statuses = {"ok": 84, "skipped": 12}


class TestOptLevelsRecords(CommonGridTests, TestCase):
    campaign = "opt_levels"
    jobs = 64
    statuses = {"ok": 62, "skipped": 2}


class TestPowerRecords(CommonGridTests, TestCase):
    campaign = "power"
    jobs = 36
    statuses = {"ok": 35, "skipped": 1}
