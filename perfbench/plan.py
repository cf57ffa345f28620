"""Seeded op lists and the recorded expected outputs they are checked against.

Everything here is pure: the same seed always yields the same op list, and
``sradgen`` only ever receives the generated arguments.  Each workload runs
whole *rounds*; a round is a fixed multiset of ops whose order the seed
shuffles, so every seed does the same amount of work and the figures of two
seeds are comparable.  The number of rounds follows from ``--seconds`` and
the nominal round length on a 2-core x86 box (Python 3.11), so a run length
is fixed by the benchmark, not by how fast the code under test happens to be.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("report", "sweep_cold", "service_mixed")

_ALL_PATTERNS = (
    "block_raster",
    "dct",
    "dct_row",
    "fifo",
    "interleaved_row",
    "motion_est_read",
    "motion_est_write",
    "strided",
    "zoombytwo",
)

#: One ``report`` round: every registered workload twice at 16x16 and once
#: at 32x32, plus three at 64x64, the simulation-bound end of the range
#: (``fifo`` and ``strided`` map to the same 64x64 design as ``dct``).  The
#: weights place the order statistics the metrics read inside clusters of
#: near-equal ops: the median among the 16x16 ops (start-up-bound), and
#: the tail (ten samples beyond it) among the slowest 32x32 ops, just below
#: the 64x64 ones.  Single ops on a shared 2-core box vary by +-30%, so a
#: statistic that falls in a gap between two designs jumps between them.
REPORT_POINTS: Tuple[Tuple[str, int, int], ...] = tuple(
    [(name, 16, 16) for name in _ALL_PATTERNS] * 2
    + [(name, 32, 32) for name in _ALL_PATTERNS]
    + [("dct", 64, 64), ("motion_est_read", 64, 64), ("motion_est_write", 64, 64)]
)

#: The registered grids one ``sweep_cold`` round runs, each cold.
SWEEP_CAMPAIGNS = ("cross_workload", "library_corners", "opt_levels", "power", "fifo_depths")
#: The single diagnostics-on campaign each ``sweep_cold`` run adds once.
DEMO_OP = ("demo", "--verify", "--lint")

#: Campaigns whose records make up the expected-record table.  The
#: ``service_mixed`` clients send these registered grids, as
#: ``sradgen --campaign C --connect HOST:PORT`` would.
RECORD_CAMPAIGNS = SWEEP_CAMPAIGNS + ("demo",)

SERVICE_CLIENTS = 2

#: Nominal wall seconds of one round on a 2-core x86 box (Python 3.11).
ROUND_SECONDS = {"report": 22.5, "sweep_cold": 5.3, "service_mixed": 2.3}

#: Volatile record fields, never compared.
VOLATILE_FIELDS = ("duration_s",)

_REPORT_LINE = re.compile(
    r"delay =\s*(?P<delay>[-\d.]+) ns\s+area =\s*(?P<area>[-\d.]+) cell units\s+FFs = (?P<ffs>\d+)"
)


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` makes: enough to fill it, at least one."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


def report_key(workload: str, rows: int, cols: int) -> str:
    return f"{workload}/{rows}x{cols}"


def parse_report_line(stdout: str) -> str:
    """The ``delay/area/FFs`` triple of a ``--report`` run, or ``""``."""
    match = _REPORT_LINE.search(stdout)
    if match is None:
        return ""
    return f"delay={match['delay']} area={match['area']} ffs={match['ffs']}"


def comparable(record: dict) -> dict:
    """A persisted record without its volatile fields."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def report_ops(seed: int, rounds: int) -> List[Tuple[str, int, int]]:
    """Seeded ``--report`` invocations: ``rounds`` shuffles of REPORT_POINTS."""
    rng = random.Random(f"report:{seed}")
    ops: List[Tuple[str, int, int]] = []
    for _ in range(rounds):
        points = list(REPORT_POINTS)
        rng.shuffle(points)
        ops += points
    return ops


def sweep_ops(seed: int, rounds: int) -> List[Tuple[str, ...]]:
    """Seeded cold campaign invocations: shuffled grid rounds plus one demo.

    Each op is the campaign name followed by any extra CLI flags.
    """
    rng = random.Random(f"sweep_cold:{seed}")
    ops: List[Tuple[str, ...]] = []
    for _ in range(rounds):
        names = list(SWEEP_CAMPAIGNS)
        rng.shuffle(names)
        ops += [(name,) for name in names]
    ops.insert(rng.randrange(len(ops) + 1), DEMO_OP)
    return ops


def _cost_order(records: Dict[str, dict]) -> List[str]:
    """Pool keys ordered so that neighbours cost about the same to evaluate."""

    def cost(key: str) -> tuple:
        r = records[key]
        return (
            r["rows"] * r["cols"],
            r["style"],
            r["variant"],
            "energy_per_access_fj" in r,
            r.get("opt_level", 0),
            r["library"],
            r["workload"],
            key,
        )

    return sorted(records, key=cost)


def service_plan(
    seed: int, rounds: int, records: Dict[str, dict]
) -> List[Tuple[List[str], List[List[str]]]]:
    """Seeded ``service_mixed`` rounds over the expected-record pool.

    Each round is one ``--serve`` session, given as ``(prefill, requests)``:
    the job keys written to its fresh cache at set-up, and per client the
    registered campaigns it sends, in order.  Every round has the same mix,
    so a longer run only adds rounds.  The pool is split into cost-matched
    pairs and the seed puts one of each pair in the prefilled half, so every
    round evaluates the same amount of work; each client sends every
    campaign of ``RECORD_CAMPAIGNS`` once in its own seeded order, so the
    two clients ask for the same grids and join on in-flight points.
    """
    rng = random.Random(f"service_mixed:{seed}")
    ordered = _cost_order(records)
    plans: List[Tuple[List[str], List[List[str]]]] = []
    for _ in range(rounds):
        prefill = [rng.choice(ordered[i : i + 2]) for i in range(0, len(ordered) - 1, 2)]
        if len(ordered) % 2:
            prefill.append(ordered[-1])
        requests = []
        for _ in range(SERVICE_CLIENTS):
            names = list(RECORD_CAMPAIGNS)
            rng.shuffle(names)
            requests.append(names)
        plans.append((prefill, requests))
    return plans


def load_expected() -> dict:
    """The expected outputs recorded by ``record_expected.py``."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
