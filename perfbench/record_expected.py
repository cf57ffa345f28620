"""Record the expected outputs every seed can draw, from real ``sradgen`` runs.

Usage: ``python3 perfbench/record_expected.py``

Writes ``perfbench/expected.json``:

- ``reports``: the ``--report`` delay/area/FFs line per (workload, rows, cols);
- ``campaigns``: the job keys each checked campaign persists;
- ``records``: every persisted record (minus ``duration_s``), keyed by job key,
  from a serial (``--serial``) cold run -- the reference a pooled run and the
  service must reproduce exactly.

Re-record only when a change is meant to move a reported figure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import e2e
import plan
import procs


def record() -> dict:
    procs.require_program()
    reports = {}
    campaigns = {}
    records = {}
    with tempfile.TemporaryDirectory(dir=procs.ROOT) as tmp:
        work = Path(tmp)
        for workload, rows, cols in plan.REPORT_POINTS:
            result = procs.run_sradgen(
                ["--workload", workload, "--rows", str(rows), "--cols", str(cols), "--report"],
                work,
            )
            line = plan.parse_report_line(result.stdout)
            if result.returncode != 0 or not line:
                raise SystemExit(f"--report {workload} {rows}x{cols} failed:\n{result.stderr}")
            reports[plan.report_key(workload, rows, cols)] = line
        for name in plan.RECORD_CAMPAIGNS:
            cache_dir = work / f"cache-{name}"
            result = procs.run_sradgen(
                ["--campaign", name, "--cache-dir", str(cache_dir), "--serial", "--quiet"],
                work,
                timeout=600.0,
            )
            if result.returncode != 0:
                raise SystemExit(f"--campaign {name} failed:\n{result.stderr}")
            keys = []
            for key, record in e2e.read_cache(cache_dir):
                record = plan.comparable(record)
                if records.setdefault(key, record) != record:
                    raise SystemExit(f"campaigns disagree on record {key}")
                keys.append(key)
            campaigns[name] = sorted(keys)
            shutil.rmtree(cache_dir)
    return {"reports": reports, "campaigns": campaigns, "records": records}


def write(expected: dict, path: Path) -> None:
    """One entry per line, so a re-recording diffs point by point."""
    sections = []
    for section in ("reports", "campaigns", "records"):
        items = sorted(expected[section].items())
        body = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in items
        )
        sections.append(f'"{section}": {{\n{body}\n}}')
    path.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    try:
        expected = record()
    except procs.MissingProgram as error:
        print(f"record_expected: {error}", file=sys.stderr)
        sys.exit(2)
    write(expected, plan.EXPECTED_PATH)
    print(
        f"wrote {plan.EXPECTED_PATH}: {len(expected['reports'])} reports, "
        f"{len(expected['records'])} records"
    )
