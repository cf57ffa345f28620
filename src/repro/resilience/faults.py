"""Deterministic fault injection: named sites, seeded triggers, four actions.

The pipeline's hot seams are instrumented with *fault points* -- one
:func:`fault_point` (or :func:`fault_data`, for write payloads) call per
seam, named like metrics counters:

==========================  ====================================================
site                        seam
==========================  ====================================================
``cache.append``            before a base/segment JSONL append
``cache.append.write``      the append payload itself (``torn`` truncates it)
``cache.append.flush``      after write+flush, before the index ack
``cache.lock.acquire``      each :class:`~repro.engine.cache.CacheLock` attempt
``cache.compact.merge``     after reading sources, before writing the temp file
``cache.compact.commit``    temp file written, before the ``os.replace``
``cache.compact.cleanup``   base replaced, before merged segments are removed
``scheduler.submit``        top of :meth:`Scheduler.submit`
``scheduler.dispatch``      before each pool batch submission
``scheduler.worker``        worker-side, top of a pool batch evaluation
``runner.evaluate``         inside :func:`~repro.engine.runner.evaluate_point`
``service.read``            per request line read by the server
``service.write``           per response line written by the server
``service.handler``         per record the server's evaluation handler relays
``client.connect``          :meth:`ServiceClient.connect`
``client.stream``           per protocol line the client reads
==========================  ====================================================

**Free when disarmed.**  With no plan installed every call is one module
global load and a ``None`` compare -- the ``NULL_SPAN`` discipline from
:mod:`repro.obs.trace` -- so the sites stay compiled into production paths
permanently; the floor is pinned by test.

**Deterministic when armed.**  A :class:`FaultPlan` maps sites to
:class:`FaultRule` triggers: a fixed hit schedule (``on_hits``), every Nth
hit (``every``), or a per-hit probability drawn from a PRNG seeded per
``(plan seed, site)`` -- so a plan replays identically run to run, process
to process.  Actions: ``raise`` a chosen exception type, ``delay``,
``torn`` (truncate a write payload), or ``exit`` (hard ``os._exit``, the
worker-crash / kill -9 simulator).

Arm programmatically with :func:`install_plan`, or for a whole process tree
(pool workers inherit the environment) with ``SRADGEN_FAULTS=plan.json``.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import log, metrics

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "clear_plan",
    "fault_data",
    "fault_point",
    "install_plan",
]

#: Environment variable naming a JSON plan file, armed at import time (and
#: therefore inside every pool worker that inherits the environment).
FAULTS_ENV_VAR = "SRADGEN_FAULTS"

_ACTIONS = ("raise", "delay", "torn", "exit")


class FaultInjected(RuntimeError):
    """The default exception a ``raise``/``torn`` fault site produces."""


#: Exception types a ``raise`` rule may name.  Deliberately a closed set:
#: plans are data, and data must not name arbitrary importables.
_EXCEPTIONS: Dict[str, type] = {
    "FaultInjected": FaultInjected,
    "OSError": OSError,
    "ConnectionResetError": ConnectionResetError,
    "ConnectionRefusedError": ConnectionRefusedError,
    "BrokenPipeError": BrokenPipeError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


@dataclass(frozen=True)
class FaultRule:
    """When and how one site misbehaves.

    Trigger precedence: an explicit ``on_hits`` schedule, else ``every`` Nth
    hit, else a seeded ``probability`` coin flip, else every hit.  However
    triggered, ``max_fires`` bounds the total fires per process (``None``
    for unbounded).
    """

    site: str
    action: str = "raise"
    on_hits: Tuple[int, ...] = ()
    every: int = 0
    probability: float = 0.0
    max_fires: Optional[int] = 1
    delay_s: float = 0.01
    exception: str = "FaultInjected"
    keep_chars: Optional[int] = None
    exit_code: int = 86

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {_ACTIONS}"
            )
        if self.exception not in _EXCEPTIONS:
            raise ValueError(
                f"unknown fault exception {self.exception!r}; "
                f"choose from {sorted(_EXCEPTIONS)}"
            )
        if not self.site:
            raise ValueError("fault rule needs a site name")
        if self.every < 0 or not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"bad trigger on fault rule for {self.site!r}")

    def should_fire(self, hit: int, fires: int, rng: random.Random) -> bool:
        """Whether hit number ``hit`` (1-based) fires, after ``fires`` fires."""
        if self.max_fires is not None and fires >= self.max_fires:
            return False
        if self.on_hits:
            return hit in self.on_hits
        if self.every:
            return hit % self.every == 0
        if self.probability:
            return rng.random() < self.probability
        return True

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"site": self.site, "action": self.action}
        if self.on_hits:
            data["on_hits"] = list(self.on_hits)
        if self.every:
            data["every"] = self.every
        if self.probability:
            data["probability"] = self.probability
        if self.max_fires != 1:
            data["max_fires"] = self.max_fires
        if self.action == "delay":
            data["delay_s"] = self.delay_s
        if self.action == "raise" and self.exception != "FaultInjected":
            data["exception"] = self.exception
        if self.action == "torn" and self.keep_chars is not None:
            data["keep_chars"] = self.keep_chars
        if self.action == "exit" and self.exit_code != 86:
            data["exit_code"] = self.exit_code
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be an object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault rule field(s): {', '.join(sorted(unknown))}")
        kwargs = dict(data)
        if "on_hits" in kwargs:
            kwargs["on_hits"] = tuple(int(h) for h in kwargs["on_hits"])
        return cls(**kwargs)


@dataclass
class FaultPlan:
    """A reproducible set of armed fault rules.

    ``seed`` drives every probabilistic trigger (per-site PRNGs are seeded
    from ``(seed, site)``), so the same plan over the same hit sequence
    fires identically everywhere.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 2026

    def __post_init__(self):
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._rules_by_site: Dict[str, List[FaultRule]] = {}
        self._rngs: Dict[str, random.Random] = {}
        for rule in self.rules:
            self._rules_by_site.setdefault(rule.site, []).append(rule)

    # ----------------------------------------------------------------- state
    def hits(self, site: str) -> int:
        """How many times ``site`` was reached in this process."""
        with self._lock:
            return self._hits.get(site, 0)

    def fires(self, site: str) -> int:
        """How many times ``site`` actually fired in this process."""
        with self._lock:
            return self._fires.get(site, 0)

    def _fired_rule(self, site: str) -> Optional[FaultRule]:
        """Count the hit and return the rule to execute, if any fires."""
        rules = self._rules_by_site.get(site)
        if rules is None:
            return None
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            fires = self._fires.get(site, 0)
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
            for rule in rules:
                if rule.should_fire(hit, fires, rng):
                    self._fires[site] = fires + 1
                    return rule
        return None

    # ------------------------------------------------------------- execution
    def trigger(self, site: str) -> None:
        """Execute the armed action for ``site``, if this hit fires."""
        rule = self._fired_rule(site)
        if rule is None:
            return
        _announce(site, rule)
        if rule.action == "delay":
            import time

            time.sleep(rule.delay_s)
            return
        if rule.action == "exit":
            os._exit(rule.exit_code)
        # "raise" -- and "torn" outside a payload site degrades to raise.
        raise _EXCEPTIONS[rule.exception](f"fault injected at {site}")

    def trigger_data(self, site: str, data: str) -> str:
        """Payload-site variant: a ``torn`` rule returns a truncated payload.

        Any other action behaves exactly like :meth:`trigger`.  Callers must
        treat a result that is not the original object as a write the
        process died in the middle of: write the fragment, then fail the
        operation (never acknowledge it).
        """
        rule = self._fired_rule(site)
        if rule is None:
            return data
        _announce(site, rule)
        if rule.action == "torn":
            keep = rule.keep_chars if rule.keep_chars is not None else len(data) // 2
            return data[: max(0, keep)]
        if rule.action == "delay":
            import time

            time.sleep(rule.delay_s)
            return data
        if rule.action == "exit":
            os._exit(rule.exit_code)
        raise _EXCEPTIONS[rule.exception](f"fault injected at {site}")

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault plan field(s): {', '.join(sorted(unknown))}")
        rules_data = data.get("rules", [])
        if not isinstance(rules_data, list):
            raise ValueError("fault plan 'rules' must be a list")
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in rules_data],
            seed=int(data.get("seed", 2026)),
        )

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Parse a plan from a JSON file (the ``SRADGEN_FAULTS`` format)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}: not a JSON fault plan: {error}") from None
        return cls.from_dict(data)


def _announce(site: str, rule: FaultRule) -> None:
    metrics.incr("faults.injected")
    metrics.incr(f"faults.{site}")
    log.warning(
        "fault injected",
        component="faults",
        site=site,
        action=rule.action,
        pid=os.getpid(),
    )


#: The armed plan.  ``None`` (the overwhelmingly common state) makes every
#: fault point a single load-and-compare -- the zero-overhead floor.
_PLAN: Optional[FaultPlan] = None


def fault_point(site: str) -> None:
    """Execute ``site``'s armed action, or do nothing when disarmed."""
    plan = _PLAN
    if plan is None:
        return
    plan.trigger(site)


def fault_data(site: str, data: str) -> str:
    """Payload fault point: may return a torn prefix of ``data``.

    Disarmed, the original object is returned unchanged -- callers can (and
    do) detect injection with an identity check, which costs nothing on the
    disabled path.
    """
    plan = _PLAN
    if plan is None:
        return data
    return plan.trigger_data(site, data)


def install_plan(plan: FaultPlan) -> Optional[FaultPlan]:
    """Arm ``plan`` process-wide; returns the previously armed plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    log.warning(
        "fault plan armed",
        component="faults",
        rules=len(plan.rules),
        seed=plan.seed,
        pid=os.getpid(),
    )
    return previous


def clear_plan() -> None:
    """Disarm fault injection (back to the zero-overhead floor)."""
    global _PLAN
    _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _PLAN


_env_plan = os.environ.get(FAULTS_ENV_VAR)
if _env_plan:  # pragma: no cover - exercised via subprocess tests
    install_plan(FaultPlan.load(_env_plan))
