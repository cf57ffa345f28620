"""Untraced end-to-end runs: real ``sradgen`` processes, timed from outside.

An *op* is one user request (a ``--report`` process, a ``--campaign``
process, or one remote campaign request); a *point* is one design record
delivered.  Every op's output is checked against ``expected.json``; a
non-zero exit, an ``error`` record, a mismatch or a duplicate evaluation
counts as a failed op.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import plan
import procs

WORKERS = "2"


@dataclass
class Run:
    """What one end-to-end run measured."""

    setup_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    points: int = 0
    wall_s: float = 0.0
    maxrss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (min 50)."""
    return max(50, math.floor(100 * (samples - 10) / samples))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``inclusive`` quantile method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metrics_of(run: Run) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, each with its unit and sample count."""
    n = len(run.latencies_s)
    pct = tail_percentile(n)
    return {
        "setup_s": {"value": statistics.median(run.setup_s), "unit": "s", "samples": len(run.setup_s)},
        "points_per_s": {"value": run.points / run.wall_s, "unit": "1/s", "samples": run.points},
        "op_p50_s": {"value": statistics.median(run.latencies_s), "unit": "s", "samples": n},
        "op_tail_s": {
            "value": percentile(run.latencies_s, pct),
            "unit": "s",
            "samples": n,
            "percentile": pct,
            "beyond": n - math.ceil(n * pct / 100.0),
        },
        "peak_rss_mb": {"value": run.maxrss_kb / 1024.0, "unit": "MB", "samples": 1},
        "fail_ratio": {
            "value": run.failed / max(1, run.attempted),
            "unit": "ratio",
            "samples": run.attempted,
        },
    }


# ---------------------------------------------------------------- checking
def read_cache(cache_dir: Path) -> List[Tuple[str, dict]]:
    """Every ``(key, record)`` line in a cache directory (base + segments)."""
    lines = []
    for path in sorted(cache_dir.rglob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                entry = json.loads(line)
                lines.append((entry["key"], entry["record"]))
    return lines


def check_record(key: str, record: dict, expected: dict) -> Optional[str]:
    """Why ``record`` is wrong, or ``None``."""
    want = expected["records"].get(key)
    if want is None:
        return f"unexpected key {key[:12]}"
    if record.get("status") == "error":
        return f"error record {key[:12]}"
    if plan.comparable(record) != want:
        return f"record mismatch {key[:12]}"
    return None


def check_campaign_cache(cache_dir: Path, name: str, expected: dict) -> List[str]:
    """Problems with a cold campaign's persisted records."""
    lines = read_cache(cache_dir)
    problems = []
    counts = Counter(key for key, _ in lines)
    duplicates = [key for key, n in counts.items() if n > 1]
    if duplicates:
        problems.append(f"{name}: {len(duplicates)} duplicate evaluation(s)")
    if sorted(counts) != expected["campaigns"][name]:
        problems.append(f"{name}: persisted keys differ from the expected grid")
    for key, record in lines:
        problem = check_record(key, record, expected)
        if problem:
            problems.append(f"{name}: {problem}")
    return problems


# ------------------------------------------------------------------ set-up
def setup_probe(run: Run, work: Path) -> None:
    """One ``setup_s`` sample for the CLI workloads: ``sradgen --list-campaigns`` wall.

    A probe runs before every second op, so the set-up samples spread over
    the whole run, as the op latencies do, instead of one burst at its start.
    """
    result = procs.run_sradgen(["--list-campaigns"], work)
    if result.returncode != 0 or "cross_workload" not in result.stdout:
        raise RuntimeError(f"sradgen --list-campaigns failed:\n{result.stderr}")
    run.setup_s.append(result.wall_s)


# --------------------------------------------------------------- workloads
def run_report(seed: int, seconds: float, work: Path, expected: dict) -> Run:
    run = Run()
    for index, (workload, rows, cols) in enumerate(plan.report_ops(seed, plan.rounds_for("report", seconds))):
        if index % 2 == 0:
            setup_probe(run, work)
        result = procs.run_sradgen(
            ["--workload", workload, "--rows", str(rows), "--cols", str(cols), "--report"], work
        )
        run.attempted += 1
        run.latencies_s.append(result.wall_s)
        run.wall_s += result.wall_s
        run.maxrss_kb = max(run.maxrss_kb, result.maxrss_kb)
        key = plan.report_key(workload, rows, cols)
        if result.returncode != 0:
            run.fail(f"{key}: exit {result.returncode}")
        elif plan.parse_report_line(result.stdout) != expected["reports"][key]:
            run.fail(f"{key}: report line mismatch")
        else:
            run.points += 1
    return run


def run_sweep_cold(seed: int, seconds: float, work: Path, expected: dict) -> Run:
    run = Run()
    for index, op in enumerate(plan.sweep_ops(seed, plan.rounds_for("sweep_cold", seconds))):
        if index % 2 == 0:
            setup_probe(run, work)
        name, extra = op[0], list(op[1:])
        cache_dir = work / f"cache-{index}"
        result = procs.run_sradgen(
            ["--campaign", name, "--cache-dir", str(cache_dir), "--workers", WORKERS, "--quiet", *extra],
            work,
        )
        run.attempted += 1
        run.latencies_s.append(result.wall_s)
        run.wall_s += result.wall_s
        run.maxrss_kb = max(run.maxrss_kb, result.maxrss_kb)
        problems = [] if result.returncode == 0 else [f"{name}: exit {result.returncode}"]
        if "--lint" in extra and "lint: 0 error-severity" not in result.stdout:
            problems.append(f"{name}: lint findings")
        if "--verify" in extra and "verify: 0 proven-inequivalent" not in result.stdout:
            problems.append(f"{name}: verify failures")
        problems += check_campaign_cache(cache_dir, name, expected)
        if problems:
            run.fail("; ".join(problems[:3]))
        else:
            run.points += len(expected["campaigns"][name])
        shutil.rmtree(cache_dir, ignore_errors=True)
    return run


def registered_campaigns() -> Dict[str, object]:
    """Campaign name -> the registered grid, as ``sradgen --campaign`` builds it."""
    from repro.engine.sweep import build_campaign

    return {name: build_campaign(name) for name in plan.RECORD_CAMPAIGNS}


def prefill_cache(cache_dir: Path, keys: Sequence[str], expected: dict) -> None:
    """Write the prefilled half through the program's own cache API."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(str(cache_dir))
    for key in keys:
        record = dict(expected["records"][key])
        record["duration_s"] = 0.0
        cache.put(key, record)


def drive_clients(
    address: tuple,
    campaigns: Dict[str, object],
    requests: List[List[str]],
    op: Callable[[str], contextlib.AbstractContextManager] = lambda detail: contextlib.nullcontext(),
) -> List[tuple]:
    """One closed-loop thread per client; returns ``(latency_s, campaign, result)``.

    Client ``i`` sends the campaigns named in ``requests[i]`` one after the
    other.  ``result`` is the ``CampaignResult``, or the exception a failed
    request raised.  Each request runs inside ``op("client<i> <campaign>")``.
    ``run_campaign_remote`` is looked up on its module per call, so a traced
    run's wrapper is the one called.
    """
    from repro.service import client as service_client

    outcomes: List[List[tuple]] = [[] for _ in requests]

    def client(index: int) -> None:
        for name in requests[index]:
            start = time.perf_counter()
            with op(f"client{index} {name}"):
                try:
                    result = service_client.run_campaign_remote(*address, campaigns[name])
                except Exception as error:  # a failed request is a failed op
                    result = error
            outcomes[index].append((time.perf_counter() - start, name, result))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for per_client in outcomes for outcome in per_client]


def check_request(name: str, result, expected: dict) -> List[str]:
    """Problems with one remote campaign request's streamed records."""
    if isinstance(result, Exception):
        return [f"{name}: request failed: {result!r}"]
    problems = [
        f"{name}: {problem}"
        for record in result.records
        for problem in [check_record(record.key, record.to_dict(), expected)]
        if problem
    ]
    if sorted(r.key for r in result.records) != expected["campaigns"][name]:
        problems.append(f"{name}: records do not match the grid")
    return problems


def duplicate_evaluations(cache_dir: Path) -> int:
    """Records persisted more than once: each means a point was evaluated twice."""
    counts = Counter(key for key, _ in read_cache(cache_dir))
    return sum(n - 1 for n in counts.values() if n > 1)


def run_service_mixed(seed: int, seconds: float, work: Path, expected: dict) -> Run:
    """Whole ``--serve`` sessions, one at a time, each with the same mix."""
    run = Run()
    campaigns = registered_campaigns()
    rounds = plan.service_plan(seed, plan.rounds_for("service_mixed", seconds), expected["records"])
    for number, (prefill, requests) in enumerate(rounds):
        cache_dir = work / f"service-cache-{number}"
        prefill_cache(cache_dir, prefill, expected)
        server = procs.Server(["--workers", WORKERS, "--cache-dir", str(cache_dir), "--port", "0"], work)
        run.setup_s.append(server.ready_s)
        start = time.perf_counter()
        try:
            outcomes = drive_clients(server.address, campaigns, requests)
            run.wall_s += time.perf_counter() - start
        finally:
            server.stop()
        run.maxrss_kb = max(run.maxrss_kb, server.maxrss_kb)
        if server.returncode != 0:
            run.problems.append(f"--serve exit {server.returncode}")
        for latency, name, result in outcomes:
            run.attempted += 1
            run.latencies_s.append(latency)
            problems = check_request(name, result, expected)
            if problems:
                run.fail("; ".join(problems[:3]))
            else:
                run.points += len(result.records)
        duplicates = duplicate_evaluations(cache_dir)
        if duplicates:
            run.failed = min(run.attempted, run.failed + duplicates)
            run.problems.append(f"{duplicates} duplicate evaluation(s)")
        shutil.rmtree(cache_dir, ignore_errors=True)
    return run


RUNNERS = {
    "report": run_report,
    "sweep_cold": run_sweep_cold,
    "service_mixed": run_service_mixed,
}


def run_workload(workload: str, seed: int, seconds: float, work: Path) -> Run:
    expected = plan.load_expected()
    if str(procs.SRC) not in sys.path:
        sys.path.insert(0, str(procs.SRC))
    return RUNNERS[workload](seed, seconds, work, expected)
