"""Deterministic fault injection: named sites, hit-schedule triggers, three actions.

The pipeline's seams that the chaos suite breaks are instrumented with
*fault points* -- one :func:`fault_point` (or :func:`fault_data`, for write
payloads) call per seam, named like metrics counters:

==========================  ====================================================
site                        seam
==========================  ====================================================
``cache.append``            before a segment JSONL append
``cache.append.write``      the append payload itself (``torn`` truncates it)
``cache.append.flush``      after write+flush, before the index ack
``cache.lock.acquire``      each :class:`~repro.engine.cache.CacheLock` attempt
``cache.compact.merge``     after reading sources, before writing the temp file
``cache.compact.commit``    temp file written, before the ``os.replace``
``cache.compact.cleanup``   base replaced, before merged segments are removed
``scheduler.worker``        worker-side, top of a pool batch evaluation
``service.write``           per response line written by the server
``client.stream``           per protocol line the client reads
==========================  ====================================================

**Free when disarmed.**  With no plan installed every call is one module
global load and a ``None`` compare -- the ``NULL_SPAN`` discipline from
:mod:`repro.obs.trace` -- so the sites stay compiled into production paths
permanently; the floor is pinned by test.

**Deterministic when armed.**  A :class:`FaultPlan` maps sites to
:class:`FaultRule` triggers: a fixed hit schedule (``on_hits``), else every
hit, bounded by ``max_fires`` -- so a plan replays identically run to run,
process to process.  Actions: ``raise`` a named exception, ``torn`` (keep
the first half of a write payload), or ``exit`` (hard ``os._exit`` with
:data:`EXIT_CODE`, the worker-crash / kill -9 simulator).

Arm programmatically with :func:`install_plan`, or for a whole process tree
(pool workers inherit the environment) with ``SRADGEN_FAULTS=plan.json``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import log, metrics

__all__ = [
    "EXIT_CODE",
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

#: The status an ``exit`` rule kills its process with.
EXIT_CODE = 86

_ACTIONS = ("raise", "torn", "exit")


class FaultInjected(RuntimeError):
    """The default exception a ``raise``/``torn`` fault site produces."""


#: Exception types a ``raise`` rule may name.  Deliberately a closed set:
#: plans are data, and data must not name arbitrary importables.
_EXCEPTIONS: Dict[str, type] = {
    "FaultInjected": FaultInjected,
    "OSError": OSError,
    "ConnectionResetError": ConnectionResetError,
}


@dataclass(frozen=True)
class FaultRule:
    """When and how one site misbehaves.

    The rule fires on the hits listed in ``on_hits`` (1-based), or on every
    hit when the schedule is empty; ``max_fires`` bounds the total fires per
    process (``None`` for unbounded).
    """

    site: str
    action: str = "raise"
    on_hits: Tuple[int, ...] = ()
    max_fires: Optional[int] = 1
    exception: str = "FaultInjected"

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

    def should_fire(self, hit: int, fires: int) -> bool:
        """Whether hit number ``hit`` (1-based) fires, after ``fires`` fires."""
        if self.max_fires is not None and fires >= self.max_fires:
            return False
        return not self.on_hits or hit in self.on_hits

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be an object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fault rule field(s): {', '.join(sorted(unknown))}")
        kwargs = dict(data)
        if "on_hits" in kwargs:
            kwargs["on_hits"] = tuple(int(h) for h in kwargs["on_hits"])
        return cls(**kwargs)


@dataclass
class FaultPlan:
    """A reproducible set of armed fault rules."""

    rules: List[FaultRule] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._rules_by_site: Dict[str, List[FaultRule]] = {}
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
            for rule in rules:
                if rule.should_fire(hit, fires):
                    self._fires[site] = fires + 1
                    return rule
        return None

    # ------------------------------------------------------------- execution
    def trigger(self, site: str, data: Optional[str] = None) -> Optional[str]:
        """Execute the armed action for ``site``, if this hit fires.

        Returns ``data`` itself unless a ``torn`` rule fires on a payload
        site, which returns its first half.  Callers must treat a result
        that is not the original object as a write the process died in the
        middle of: write the fragment, then fail the operation (never
        acknowledge it).  ``torn`` without a payload raises.
        """
        rule = self._fired_rule(site)
        if rule is None:
            return data
        metrics.incr("faults.injected")
        metrics.incr(f"faults.{site}")
        log.warning(
            "fault injected", component="faults", site=site, action=rule.action,
            pid=os.getpid(),
        )
        if rule.action == "exit":
            os._exit(EXIT_CODE)
        if rule.action == "torn" and data is not None:
            return data[: len(data) // 2]
        raise _EXCEPTIONS[rule.exception](f"fault injected at {site}")

    # --------------------------------------------------------- serialisation
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"rules"}
        if unknown:
            raise ValueError(f"unknown fault plan field(s): {', '.join(sorted(unknown))}")
        rules_data = data.get("rules", [])
        if not isinstance(rules_data, list):
            raise ValueError("fault plan 'rules' must be a list")
        return cls(rules=[FaultRule.from_dict(rule) for rule in rules_data])

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Parse a plan from a JSON file (the ``SRADGEN_FAULTS`` format)."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}: not a JSON fault plan: {error}") from None
        return cls.from_dict(data)


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
    return plan.trigger(site, data)


def install_plan(plan: FaultPlan) -> Optional[FaultPlan]:
    """Arm ``plan`` process-wide; returns the previously armed plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    log.warning(
        "fault plan armed",
        component="faults",
        rules=len(plan.rules),
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
