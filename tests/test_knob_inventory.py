"""Literal inventories: every registered job key, every option, every spec field.

``campaign_key_digest`` hashes the keys of every registered campaign without
evaluating anything, so a change that moves any job key of any grid fails
here in milliseconds (``tests/test_job_key.py`` checks the six grids the
benchmark records against ``perfbench/expected.json``).  CI's "Source size"
step prints the same figures.

The option and field sets are literals on purpose: a new ``sradgen`` flag
or ``FlowSpec`` field needs a deliberate edit here.

Print the figures with
``PYTHONPATH=src:tests python -c 'import test_knob_inventory as t; print(*t.campaign_key_digest())'``.
"""

import dataclasses
import hashlib

from repro.cli import build_parser
from repro.engine.sweep import available_campaigns, build_campaign
from repro.flow import FlowSpec

#: ``(lines, sha256)`` of every registered campaign's sorted job keys.
CAMPAIGN_KEYS = (
    660,
    "9612133e63b6165b242532828e72fdb35f567a2208cfb93106535ec15be5e8d1",
)

SRADGEN_OPTIONS = {
    "--input", "--workload", "--campaign", "--list-campaigns",
    "--compact-cache", "--cache-stats", "--serve",
    "--rows", "--cols", "--vhdl", "--verilog", "--report", "--explore",
    "--opt-level", "--max-fsm-states", "--lint", "--verify",
    "--cache-dir", "--connect", "--workers", "--serial", "--force", "--quiet",
    "--host", "--port", "--retry-max", "--trace", "--metrics-out",
}

FLOWSPEC_FIELDS = {
    "library", "opt_level", "power_cycles", "max_fsm_states", "lint", "verify",
}


def campaign_key_digest():
    """``(lines, sha256)`` over one ``"<campaign> <key>"`` line per job.

    Campaigns in name order, each campaign's keys sorted.
    """
    lines = [
        f"{name} {key}"
        for name in available_campaigns()
        for key in sorted(job.key for job in build_campaign(name).jobs)
    ]
    return len(lines), hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_every_registered_campaign_keeps_its_job_keys():
    assert campaign_key_digest() == CAMPAIGN_KEYS


def test_sradgen_options_are_the_pinned_set():
    options = {
        option
        for action in build_parser()._actions
        if action.option_strings and action.dest != "help"
        for option in action.option_strings
    }
    assert options == SRADGEN_OPTIONS


def test_flowspec_fields_are_the_pinned_set():
    assert {field.name for field in dataclasses.fields(FlowSpec)} == FLOWSPEC_FIELDS
