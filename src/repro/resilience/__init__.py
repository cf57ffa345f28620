"""Resilience subsystem: deterministic fault injection + recovery policies.

Two halves, deliberately in one package because each exists to prove the
other works:

* :mod:`repro.resilience.faults` -- ten named **fault-injection sites** on
  the seams the chaos suite breaks (cache appends, locking and compaction,
  pool worker bodies, service response writes, client stream reads).
  Disabled sites follow the ``NULL_SPAN`` pattern from :mod:`repro.obs`:
  one module-global check, zero allocation, a pinned overhead floor.  A
  :class:`~repro.resilience.faults.FaultPlan` (JSON, force-enabled via
  ``SRADGEN_FAULTS=plan.json``, which pool workers inherit) arms chosen
  sites with a deterministic hit schedule and one of three actions: raise,
  torn (half-written) payload, or hard ``os._exit``.
* :mod:`repro.resilience.retry` -- the **recovery policies** the rest of
  the stack heals itself with: :class:`~repro.resilience.retry.RetryPolicy`
  (bounded attempts, deterministic exponential backoff) and
  :func:`~repro.resilience.retry.call_with_retry`, the one sanctioned retry
  loop (the ``ast.bare-retry-loop`` lint rule keeps ad-hoc ones out of the
  tree).

The package root imports nothing; import from the submodules.  The chaos
suite (``tests/test_resilience_*.py``) runs the multi-client campaign
scenario under injection plans and asserts the production invariant: no
lost records, no duplicate evaluations, and results identical to a
fault-free serial run.
"""
