"""Fault-injection harness: triggers, actions, determinism, overhead floor."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_plan,
    fault_data,
    fault_point,
    install_plan,
)
from repro.resilience.retry import (
    DETERMINISTIC,
    TRANSIENT,
    RetryPolicy,
    call_with_retry,
    classify_exception,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no plan armed."""
    clear_plan()
    yield
    clear_plan()


# ------------------------------------------------------------------ FaultRule
def test_rule_validation_rejects_bad_configs():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultRule(site="x", action="explode")
    with pytest.raises(ValueError, match="unknown fault exception"):
        FaultRule(site="x", exception="SystemExit")
    with pytest.raises(ValueError, match="needs a site"):
        FaultRule(site="")
    with pytest.raises(ValueError, match="bad trigger"):
        FaultRule(site="x", probability=1.5)
    with pytest.raises(ValueError, match="bad trigger"):
        FaultRule(site="x", every=-1)


def test_on_hits_schedule_fires_exactly_those_hits():
    rule = FaultRule(site="x", on_hits=(2, 4), max_fires=None)
    rng = random.Random(0)
    fired = [rule.should_fire(hit, 0, rng) for hit in range(1, 6)]
    assert fired == [False, True, False, True, False]


def test_every_nth_hit_fires_periodically():
    rule = FaultRule(site="x", every=3, max_fires=None)
    rng = random.Random(0)
    fired = [hit for hit in range(1, 10) if rule.should_fire(hit, 0, rng)]
    assert fired == [3, 6, 9]


def test_max_fires_bounds_total_fires():
    rule = FaultRule(site="x")  # always-fire, max_fires=1 (the default)
    rng = random.Random(0)
    assert rule.should_fire(1, 0, rng)
    assert not rule.should_fire(2, 1, rng)  # budget spent


def test_probability_trigger_is_deterministic_per_seed():
    def fires(seed):
        plan = FaultPlan(
            [FaultRule(site="x", probability=0.5, max_fires=None)], seed=seed
        )
        out = []
        for hit in range(40):
            try:
                plan.trigger("x")
                out.append(False)
            except FaultInjected:
                out.append(True)
        return out

    a, b = fires(7), fires(7)
    assert a == b  # same seed, same schedule -- replayable chaos
    assert True in a and False in a
    assert fires(8) != a  # and the seed actually matters


# ------------------------------------------------------------------- actions
def test_raise_action_uses_the_named_exception():
    install_plan(FaultPlan([FaultRule(site="x", exception="ConnectionResetError")]))
    with pytest.raises(ConnectionResetError, match="fault injected at x"):
        fault_point("x")
    fault_point("x")  # max_fires=1: the second hit is clean


def test_delay_action_sleeps_then_continues():
    install_plan(FaultPlan([FaultRule(site="x", action="delay", delay_s=0.05)]))
    start = time.perf_counter()
    fault_point("x")
    assert time.perf_counter() - start >= 0.04


def test_torn_action_returns_a_prefix_and_fails_identity():
    install_plan(FaultPlan([FaultRule(site="w", action="torn", keep_chars=4)]))
    line = "0123456789\n"
    torn = fault_data("w", line)
    assert torn == "0123" and torn is not line
    clean = fault_data("w", line)  # fire budget spent
    assert clean is line  # identity, not just equality: the no-op contract


def test_torn_default_keeps_half_the_payload():
    install_plan(FaultPlan([FaultRule(site="w", action="torn")]))
    assert fault_data("w", "abcdefgh") == "abcd"


def test_exit_action_kills_the_process(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"rules": [{"site": "x", "action": "exit", "exit_code": 77}]})
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.resilience.faults import fault_point; fault_point('x')",
        ],
        env={
            **os.environ,
            FAULTS_ENV_VAR: str(plan),
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
        capture_output=True,
    )
    assert proc.returncode == 77


# ----------------------------------------------------------- plan bookkeeping
def test_plan_counts_hits_and_fires_per_site():
    plan = FaultPlan([FaultRule(site="x", on_hits=(2,))])
    install_plan(plan)
    fault_point("x")
    with pytest.raises(FaultInjected):
        fault_point("x")
    fault_point("x")
    fault_point("unlisted")  # not a rule site: not even counted
    assert plan.hits("x") == 3 and plan.fires("x") == 1
    assert plan.hits("unlisted") == 0


def test_injection_increments_metrics_counters():
    before = metrics.counter("faults.injected")
    install_plan(FaultPlan([FaultRule(site="seam")]))
    with pytest.raises(FaultInjected):
        fault_point("seam")
    assert metrics.counter("faults.injected") == before + 1
    assert metrics.counter("faults.seam") >= 1


def test_install_plan_returns_previous_and_clear_disarms():
    first = FaultPlan([FaultRule(site="x")])
    assert install_plan(first) is None
    second = FaultPlan([])
    assert install_plan(second) is first
    assert active_plan() is second
    clear_plan()
    assert active_plan() is None


# --------------------------------------------------------------- persistence
def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        [
            FaultRule(site="a", on_hits=(1, 3), max_fires=None),
            FaultRule(site="b", action="torn", keep_chars=7),
            FaultRule(site="c", action="delay", delay_s=0.2, every=5),
            FaultRule(site="d", action="exit", exit_code=9),
            FaultRule(site="e", exception="OSError", probability=0.25),
        ],
        seed=99,
    )
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    loaded = FaultPlan.load(str(path))
    assert loaded.to_dict() == plan.to_dict()
    assert loaded.rules == plan.rules and loaded.seed == 99


def test_plan_load_rejects_unknown_fields_and_garbage(tmp_path):
    with pytest.raises(ValueError, match="unknown fault rule field"):
        FaultRule.from_dict({"site": "x", "color": "red"})
    with pytest.raises(ValueError, match="unknown fault plan field"):
        FaultPlan.from_dict({"rules": [], "bogus": 1})
    with pytest.raises(ValueError, match="must be a list"):
        FaultPlan.from_dict({"rules": {}})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not a JSON fault plan"):
        FaultPlan.load(str(bad))


def test_env_var_arms_a_fresh_process(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"rules": [{"site": "x"}], "seed": 5}))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.resilience import faults\n"
            "plan = faults.active_plan()\n"
            "assert plan is not None and plan.seed == 5\n"
            "try:\n"
            "    faults.fault_point('x')\n"
            "except faults.FaultInjected:\n"
            "    print('FIRED')\n",
        ],
        env={
            **os.environ,
            FAULTS_ENV_VAR: str(plan),
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FIRED" in proc.stdout


# ------------------------------------------------------------ overhead floor
def test_disabled_fault_point_overhead_floor():
    """Disarmed sites must stay free: one global load and a None compare.

    Same floor discipline (and bound) as the NULL_SPAN test in test_obs.py.
    """
    clear_plan()
    n = 200_000
    payload = "x" * 64
    start = time.perf_counter()
    for _ in range(n):
        fault_point("cache.append")
    elapsed = time.perf_counter() - start
    assert elapsed < n * 2.5e-6, f"disabled fault_point too slow: {elapsed:.3f}s"
    start = time.perf_counter()
    for _ in range(n):
        assert fault_data("cache.append.write", payload) is payload
    elapsed = time.perf_counter() - start
    assert elapsed < n * 2.5e-6, f"disabled fault_data too slow: {elapsed:.3f}s"


# ------------------------------------------------------------- retry policy
def test_backoff_schedule_is_deterministic_and_capped():
    policy = RetryPolicy(max_retries=5, base_backoff_s=0.01, max_backoff_s=0.05)
    assert [policy.backoff_s(n) for n in range(1, 6)] == [
        0.01,
        0.02,
        0.04,
        0.05,
        0.05,
    ]
    assert policy.backoff_s(0) == 0.0


def test_policy_validation():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(base_backoff_s=-0.1)


def test_classification_mirrors_the_evaluate_job_contract():
    from repro.core.mapping_params import MappingError

    assert classify_exception(MappingError("no mapping")) == DETERMINISTIC
    assert classify_exception(ValueError("bad spec")) == DETERMINISTIC
    assert classify_exception(OSError("pool broke")) == TRANSIENT
    assert classify_exception(FaultInjected("chaos")) == TRANSIENT


def test_call_with_retry_heals_transient_failures():
    attempts = []
    waits = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("transient")
        return "ok"

    before = metrics.counter("retries.total")
    result = call_with_retry(
        flaky,
        RetryPolicy(max_retries=3, base_backoff_s=0.5),
        metric="test.retries",
        sleep=waits.append,
    )
    assert result == "ok" and len(attempts) == 3
    assert waits == [0.5, 1.0]  # the deterministic schedule, no jitter
    assert metrics.counter("retries.total") == before + 2


def test_call_with_retry_gives_up_after_the_budget():
    attempts = []

    def hopeless():
        attempts.append(1)
        raise OSError("still down")

    with pytest.raises(OSError, match="still down"):
        call_with_retry(
            hopeless, RetryPolicy(max_retries=2, base_backoff_s=0), sleep=lambda s: None
        )
    assert len(attempts) == 3  # 1 try + 2 retries


def test_call_with_retry_never_retries_deterministic_errors():
    attempts = []

    def broken():
        attempts.append(1)
        raise ValueError("always wrong")

    with pytest.raises(ValueError):
        call_with_retry(broken, RetryPolicy(max_retries=5), sleep=lambda s: None)
    assert len(attempts) == 1


def test_call_with_retry_respects_retry_on_filter():
    attempts = []

    def flaky():
        attempts.append(1)
        raise OSError("transient but unlisted")

    with pytest.raises(OSError):
        call_with_retry(
            flaky,
            RetryPolicy(max_retries=5),
            retry_on=(TimeoutError,),
            sleep=lambda s: None,
        )
    assert len(attempts) == 1
