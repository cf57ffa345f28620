"""The repository benchmark: ``sradgen`` end to end, and per layer when traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep_cold --seed 1 --trace 1
    python3 perfbench/run.py --workload service_mixed --seed 2 --out results.jsonl
    python3 perfbench/run.py --workload all --seed 3
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``report``: seeded single-design ``sradgen --report`` processes, 16x16 to
  64x64, one at a time.  Simulation-bound; bypasses scheduler and cache.
- ``sweep_cold``: seeded cold ``sradgen --campaign`` processes over five
  registered grids with ``--workers 2``, plus one ``demo --verify --lint``.
  Synthesis-bound; the cache is write-only.
- ``service_mixed``: rounds of one ``sradgen --serve --workers 2`` session
  each, its cache prefilled with a seeded half of the points; two client
  threads each send the six registered grids in their own seeded order, as
  ``sradgen --campaign C --connect`` would (closed loop).  Exercises the
  service, dedup and cache reads.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
runs one round in-process and serially under the benchmark's own wrappers
and prints per-layer self times; it also writes a Chrome trace-event file
under ``.perfbench_work/``.  The last stdout line is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (prefixed with
the workload name under ``--workload all``).  ``--out FILE``
appends the full result (with sample counts, percentiles and the
calibration kernel time) to a JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time

import plan
import procs

END_TO_END = ("setup_s", "points_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")
CALIBRATION_REPEATS = 3


def calibration_kernel() -> float:
    """Wall seconds of a fixed pure-Python loop: machine speed, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def _calibrate() -> float:
    return statistics.median(calibration_kernel() for _ in range(CALIBRATION_REPEATS))


def _print_table(rows, title: str) -> None:
    print(title)
    for name, entry in rows:
        extra = ""
        if "samples" in entry:
            extra = f"  n={entry['samples']}"
        if "percentile" in entry:
            extra += f"  p{entry['percentile']} ({entry['beyond']} beyond)"
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']:<6}{extra}")


def run_end_to_end(args, work) -> dict:
    import e2e

    run = e2e.run_workload(args.workload, args.seed, args.seconds, work)
    measured = e2e.metrics_of(run)
    _print_table(measured.items(), f"{args.workload} (seed {args.seed}), end to end:")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: measured[name] for name in END_TO_END},
        "details": {"fail_ratio": measured["fail_ratio"]["value"]},
    }


def run_traced(args, work) -> dict:
    import layers

    trace_path = procs.WORK / f"trace-{args.workload}-{args.seed}.json"
    values, run, tracer = layers.traced_run(args.workload, args.seed, work, trace_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER_UNITS.items()}
    _print_table(metrics.items(), f"{args.workload} (seed {args.seed}), per layer (self time):")
    # Client request self time is waiting on the server threads, which run
    # at the same time; it is shown apart, not as a share of layer cost.
    names = [n for n in layers.SELF_TIME_METRICS.values() if n != "service.request_s"]
    timed = sorted(((name, values[name]) for name in names + ["orchestration.self_s"]), key=lambda item: -item[1])
    total = sum(v for _, v in timed) or 1.0
    print("largest layers by self time:")
    for name, seconds in timed[:6]:
        print(f"  {name:<34} {seconds:10.3f} s  {100 * seconds / total:5.1f}%")
    if values["service.request_s"]:
        print(f"  (client wait, not layer cost: service.request_s {values['service.request_s']:.3f} s)")
    print(f"trace written to {trace_path}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "details": {"trace_file": str(trace_path), "spans": len(tracer.spans)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=plan.WORKLOADS + ("all",), help="one workload, or all in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    try:
        procs.require_program()
    except procs.MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(procs.SRC), quiet=1)
    workloads = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_one(args, workload)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, entry in result["metrics"].items():
            final["metrics"][prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps(final))
    return 0


def run_one(args, workload: str) -> dict:
    """Run one workload between two calibration-kernel timings."""
    args = argparse.Namespace(**{**vars(args), "workload": workload})
    work = procs.WORK / f"run-{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calibration_before = _calibrate()
    try:
        result = (run_traced if args.trace else run_end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration = statistics.median([calibration_before, _calibrate()])
    print(f"calibration kernel: {calibration:.4f} s (machine speed; not a metric)")
    if args.out:
        full = {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "calibration_s": calibration,
            **result,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(full, sort_keys=True) + "\n")
    return result


if __name__ == "__main__":
    sys.exit(main())
