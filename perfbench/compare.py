"""Compare two result files written by ``run.py --out``.

Usage: ``python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl``

Each file holds one JSON line per run.  For every (workload, end-to-end
metric) the verdict is:

- ``unresolved``: the run-to-run spread (interquartile range over median)
  of either side exceeds the metric's bound, unless every new run beats
  every old run;
- ``worse-beyond-bound``: the new median is worse than the old one by more
  than the bound;
- ``better``: the new median is better by more than the old side's spread;
- ``within-bound``: anything else.

Bounds come from ``BENCHMARK.json``.  Per-layer metrics have no bound and
are listed with their change only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import procs


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, over every run in a result file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                run = json.loads(line)
                for name, entry in run["metrics"].items():
                    values[(run["workload"], name)].append(float(entry["value"]))
    return values


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 with fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(old: Sequence[float], new: Sequence[float], bound: float, better: str) -> Tuple[str, float]:
    """The verdict and the signed change (positive = worse) of ``new`` vs ``old``."""
    sign = 1.0 if better == "lower" else -1.0
    old_median, new_median = statistics.median(old), statistics.median(new)
    change = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
    all_better = (max(new) < min(old)) if better == "lower" else (min(new) > max(old))
    if max(spread(old), spread(new)) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse-beyond-bound", change
    if change < 0 and -change > spread(old):
        return "better", change
    return "within-bound", change


def main(old_path: str, new_path: str) -> int:
    spec = json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    old, new = load(old_path), load(new_path)
    print(f"{'workload':<14} {'metric':<34} {'old':>12} {'new':>12} {'change':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        old_median, new_median = statistics.median(old[key]), statistics.median(new[key])
        if name in bounds:
            label, change = verdict(old[key], new[key], *bounds[name])
            shown = f"{100 * change:+7.1f}%"
        else:
            label = "no bound"
            shown = f"{100 * (new_median - old_median) / old_median:+7.1f}%" if old_median else "    n/a"
        print(f"{workload:<14} {name:<34} {old_median:>12.6g} {new_median:>12.6g} {shown}  {label}")
    return 0
