"""Recovery policies: bounded retries with deterministic backoff.

:class:`RetryPolicy` is the single source of truth for "how many times and
how long between" across the stack -- the scheduler's transient-error
retries, the cache's append retries, and the client's reconnect loop all
carry one.  Backoff is a pure function of the attempt number (exponential
with a cap, **no jitter**): two runs of the same plan wait the same
schedule, which is what keeps chaos tests reproducible.

Classification extends the contract :func:`repro.engine.runner.evaluate_point`
already lives by: mapping/netlist/value errors are *deterministic* (retrying
cannot help; the record is SKIPPED and cacheable), everything else is
*transient* (the record is ERROR, never cached, and a candidate for retry).

:func:`call_with_retry` is the one sanctioned retry loop in the tree; the
``ast.bare-retry-loop`` lint rule rejects hand-rolled ``while True`` /
``except`` / ``continue`` loops that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.obs import metrics

__all__ = [
    "DETERMINISTIC",
    "TRANSIENT",
    "RetryPolicy",
    "call_with_retry",
    "classify_exception",
]

#: Classification labels: a *transient* failure may succeed on retry
#: (crashed worker, dropped socket, torn write); a *deterministic* one
#: will fail identically every time (bad mapping, malformed netlist).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"


def classify_exception(error: BaseException) -> str:
    """Label ``error`` transient or deterministic for retry decisions.

    Mirrors the :func:`~repro.engine.runner.evaluate_point` status contract:
    the exception types it converts to SKIPPED records are deterministic;
    everything else -- OS-level trouble, pool breakage, injected faults --
    is transient.
    """
    from repro.core.mapping_params import MappingError
    from repro.hdl.netlist import NetlistError

    if isinstance(error, (MappingError, NetlistError, ValueError, TypeError)):
        return DETERMINISTIC
    return TRANSIENT


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic exponential backoff.

    ``max_retries`` counts *re*-tries: 0 disables retrying, 2 allows three
    total attempts.  The wait before retry ``n`` (1-based) is
    ``base_backoff_s * 2 ** (n - 1)``, capped at ``max_backoff_s`` --
    deterministic by design (no jitter), so recovery schedules replay
    identically under a seeded fault plan.
    """

    max_retries: int = 2
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.base_backoff_s * 2 ** (attempt - 1), self.max_backoff_s)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether retry number ``attempt`` (1-based) is allowed for ``error``."""
        if attempt > self.max_retries:
            return False
        return classify_exception(error) == TRANSIENT


T = TypeVar("T")


def call_with_retry(
    func: Callable[[], T],
    policy: RetryPolicy,
    *,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    metric: Optional[str] = None,
    sleep: Callable[[float], None] = None,
) -> T:
    """Call ``func`` under ``policy``, backing off between attempts.

    Only exceptions matching ``retry_on`` *and* classified transient are
    retried; anything else propagates immediately.  The final attempt's
    exception propagates unchanged.  Each retry increments ``metric`` (when
    given) and ``retries.total``.
    """
    if sleep is None:
        import time

        sleep = time.sleep
    attempt = 0
    while True:
        try:
            return func()
        except retry_on as error:
            attempt += 1
            if not policy.should_retry(error, attempt):
                raise
            metrics.incr("retries.total")
            if metric:
                metrics.incr(metric)
            delay = policy.backoff_s(attempt)
            if delay > 0:
                sleep(delay)
