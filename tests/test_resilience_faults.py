"""Fault-injection harness: triggers, actions, determinism, overhead floor,
and the census of fault sites."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.resilience.faults import (
    EXIT_CODE,
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
    with pytest.raises(ValueError, match="unknown fault exception"):
        FaultRule(site="x", exception="TimeoutError")  # not one a plan uses
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultRule(site="x", action="delay")
    with pytest.raises(ValueError, match="needs a site"):
        FaultRule(site="")


def test_on_hits_schedule_fires_exactly_those_hits():
    rule = FaultRule(site="x", on_hits=(2, 4), max_fires=None)
    fired = [rule.should_fire(hit, 0) for hit in range(1, 6)]
    assert fired == [False, True, False, True, False]


def test_max_fires_bounds_total_fires():
    rule = FaultRule(site="x")  # always-fire, max_fires=1 (the default)
    assert rule.should_fire(1, 0)
    assert not rule.should_fire(2, 1)  # budget spent


# ------------------------------------------------------------------- actions
def test_raise_action_uses_the_named_exception():
    install_plan(FaultPlan([FaultRule(site="x", exception="ConnectionResetError")]))
    with pytest.raises(ConnectionResetError, match="fault injected at x"):
        fault_point("x")
    fault_point("x")  # max_fires=1: the second hit is clean


def test_torn_action_returns_a_prefix_and_fails_identity():
    install_plan(FaultPlan([FaultRule(site="w", action="torn")]))
    line = "0123456789\n"
    torn = fault_data("w", line)
    assert torn == "01234" and torn is not line  # half of 11 characters
    clean = fault_data("w", line)  # fire budget spent
    assert clean is line  # identity, not just equality: the no-op contract


def test_torn_default_keeps_half_the_payload():
    install_plan(FaultPlan([FaultRule(site="w", action="torn")]))
    assert fault_data("w", "abcdefgh") == "abcd"


def test_exit_action_kills_the_process(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"rules": [{"site": "x", "action": "exit"}]})
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
    assert proc.returncode == EXIT_CODE == 86


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
    """A hand-written plan with every rule field loads to the same rules."""
    path = tmp_path / "plan.json"
    path.write_text(
        """{"rules": [
            {"site": "a", "on_hits": [1, 3], "max_fires": null},
            {"site": "b", "action": "torn", "max_fires": 2},
            {"site": "c", "action": "exit"},
            {"site": "d", "action": "raise", "exception": "ConnectionResetError"}
        ]}"""
    )
    assert FaultPlan.load(str(path)).rules == [
        FaultRule(site="a", on_hits=(1, 3), max_fires=None),
        FaultRule(site="b", action="torn", max_fires=2),
        FaultRule(site="c", action="exit"),
        FaultRule(site="d", exception="ConnectionResetError"),
    ]


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
    plan.write_text(json.dumps({"rules": [{"site": "x"}]}))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.resilience import faults\n"
            "plan = faults.active_plan()\n"
            "assert plan is not None and len(plan.rules) == 1\n"
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


# ------------------------------------------------------------- site census
_FAULT_CALLS = ("fault_point", "fault_data")


def _fault_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FAULT_CALLS:
            yield node


def _source_sites():
    """Every site a fault point in ``src`` names: ``{site: "file:line"}``."""
    sites = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for call in _fault_calls(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(REPO_ROOT)}:{call.lineno}"
            (site,) = call.args[:1] or [None]
            assert isinstance(site, ast.Constant) and isinstance(site.value, str), (
                f"{where}: a fault site must be a string literal"
            )
            sites[site.value] = where
    return sites


def _armed_sites():
    """Strings the tests name, except as a disarmed fault point's argument,
    plus the sites of the plan CI's chaos-smoke job arms."""
    armed = set()
    for path in (REPO_ROOT / "tests").rglob("test_*.py"):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(call.args[0]) for call in _fault_calls(tree) if call.args}
        armed.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in calls
        )
    plan = FaultPlan.load(str(REPO_ROOT / "examples" / "chaos_smoke_faults.json"))
    return armed | {rule.site for rule in plan.rules}


def test_every_fault_site_is_armed_by_a_test_or_ci():
    """A site nothing arms proves no recovery; it is code to delete."""
    unarmed = {
        site: where for site, where in _source_sites().items()
        if site not in _armed_sites()
    }
    assert not unarmed, f"fault sites no test or CI plan arms: {unarmed}"


def test_readme_site_table_lists_exactly_the_source_sites():
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.split("Fault points (`site` names", 1)[1].split("\n\n")[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = [re.match(r"\| `([^`]+)`", row).group(1) for row in rows]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(_source_sites())


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
