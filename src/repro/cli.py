"""``sradgen`` command-line tool.

A thin front end over :mod:`repro.core.sradgen`, mirroring the paper's
SRAdGen utility: read an address sequence, run the mapping procedure, and
emit synthesisable HDL plus (optionally) area/delay figures.  On top of
that, ``--campaign`` drives the batch engine (:mod:`repro.engine`): cached,
parallel design-space exploration over whole workload/geometry/style grids.

Usage examples::

    # Map a sequence stored one address per line and write VHDL
    sradgen --input addresses.txt --rows 4 --cols 4 --vhdl srag.vhd

    # Use a built-in workload and print mapping parameters and synthesis data
    sradgen --workload motion_est_read --rows 16 --cols 16 --report

    # Explore the design space for a workload
    sradgen --workload dct --rows 8 --cols 8 --explore

    # Run a batch campaign with a persistent result cache (re-running only
    # evaluates new points)
    sradgen --campaign demo --cache-dir .sradgen_cache
    sradgen --list-campaigns

    # Synthesis figures after logic optimization (what a real tool reports)
    sradgen --workload dct --rows 8 --cols 8 --report --opt-level 1

    # Bound the symbolic-FSM candidates while exploring
    sradgen --workload fifo --rows 8 --cols 8 --explore --max-fsm-states 32

    # Drop superseded lines from a long-lived campaign cache
    sradgen --compact-cache --cache-dir .sradgen_cache

    # Long-running campaign service; any number of clients share its
    # scheduler, cache and in-flight dedup table
    sradgen --serve --cache-dir .svc_cache --port 8787
    sradgen --campaign smoke --connect 127.0.0.1:8787
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.analysis.explorer import explore
from repro.core.mapping_params import MappingError
from repro.core.sradgen import generate
from repro.engine.cache import CacheLockTimeout, ResultCache
from repro.flow import FlowSpec, cli_overrides
from repro.obs import enable_tracing, get_tracer, metrics, render_spans, span
from repro.engine.runner import CampaignRunner, EvalRecord
from repro.engine.sweep import (
    CAMPAIGNS,
    available_campaigns,
    build_campaign,
    campaign_description,
)
from repro.workloads.loopnest import AffineAccessPattern
from repro.workloads.registry import WORKLOADS, build_pattern
from repro.workloads.sequences import AddressSequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.retry import RetryPolicy

__all__ = ["main", "build_parser"]


def _bounded_int(minimum: int):
    """Argparse type factory: an integer no smaller than ``minimum``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return convert


_opt_level = _bounded_int(0)
_fsm_states = _bounded_int(1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="sradgen",
        description=(
            "Map an address sequence onto the Shift Register based Address "
            "Generator (SRAG) and emit synthesisable HDL, or run batch "
            "design-space campaigns."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input",
        help="file containing one linear address per line (comments start with '#')",
    )
    source.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="use a built-in workload instead of an input file",
    )
    source.add_argument(
        "--campaign",
        choices=sorted(CAMPAIGNS),
        help="run a batch design-space campaign instead of a single mapping",
    )
    source.add_argument(
        "--list-campaigns",
        action="store_true",
        help="list available campaigns and exit",
    )
    source.add_argument(
        "--compact-cache",
        action="store_true",
        help=(
            "rewrite the --cache-dir result file keeping only the latest "
            "entry per key, then exit"
        ),
    )
    source.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print statistics about the --cache-dir result cache (entry "
            "count, live vs stale lines, status breakdown) and exit"
        ),
    )
    source.add_argument(
        "--serve",
        action="store_true",
        help=(
            "run the campaign service: a long-lived JSON-lines server that "
            "evaluates campaign/explore requests from many clients over one "
            "shared scheduler and cache (see --host/--port/--cache-dir)"
        ),
    )
    parser.add_argument("--rows", type=int, help="memory array rows")
    parser.add_argument("--cols", type=int, help="memory array columns")
    parser.add_argument("--vhdl", help="write generated VHDL to this file")
    parser.add_argument("--verilog", help="write generated Verilog to this file")
    parser.add_argument(
        "--report",
        action="store_true",
        help="print mapping parameters and run the synthesis flow",
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="evaluate alternative architectures and print the design space",
    )
    parser.add_argument(
        "--opt-level",
        type=_opt_level,
        default=None,
        metavar="N",
        help=(
            "logic-optimization effort for synthesis (0 = raw netlist, "
            "1 = constant folding, sharing, chain collapsing and dead-cell "
            "removal; default 0).  With --campaign, overrides every job's "
            "opt level."
        ),
    )
    parser.add_argument(
        "--max-fsm-states",
        type=_fsm_states,
        default=None,
        metavar="N",
        help=(
            "skip symbolic-FSM candidates for sequences longer than N "
            "states (default 512).  Applies to --explore and, with "
            "--campaign, overrides every job's bound."
        ),
    )
    parser.add_argument(
        "--lint",
        action="count",
        default=None,
        dest="lint",
        help=(
            "run the design-rule checker (repro.lint.design) on every "
            "synthesised netlist and exit 1 on error-severity findings.  "
            "Repeat (--lint --lint) to add the SAT-backed semantic rules.  "
            "With --campaign or --explore, applies to every evaluated point "
            "(cache keys are unaffected); otherwise with --input/--workload "
            "it implies --report."
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_const",
        const=1,
        default=None,
        dest="verify",
        help=(
            "formally verify (SAT-based CEC, repro.verify) that every "
            "synthesised netlist is equivalent to its pre-flow netlist; "
            "exit 2 on proven inequivalence.  With --campaign or --explore, "
            "applies to every evaluated point (cache keys are unaffected); "
            "otherwise with --input/--workload it implies --report."
        ),
    )
    engine = parser.add_argument_group("campaign options")
    engine.add_argument(
        "--cache-dir",
        help="persistent result-cache directory (campaigns resume from it)",
    )
    engine.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help=(
            "run --campaign against a remote sradgen --serve instance "
            "instead of evaluating locally"
        ),
    )
    engine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for campaign evaluation (default: min(cpus, 8))",
    )
    engine.add_argument(
        "--serial",
        action="store_true",
        help="evaluate campaign jobs serially in-process",
    )
    engine.add_argument(
        "--force",
        action="store_true",
        help="re-evaluate campaign jobs even when cached",
    )
    engine.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job campaign progress lines",
    )
    service = parser.add_argument_group("service options")
    service.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface for --serve to bind (default 127.0.0.1)",
    )
    service.add_argument(
        "--port",
        type=int,
        default=0,
        help="port for --serve to bind (default 0: pick a free port and print it)",
    )
    resilience = parser.add_argument_group("resilience options")
    resilience.add_argument(
        "--retry-max",
        type=int,
        metavar="N",
        help=(
            "retry transient evaluation failures up to N times with "
            "deterministic exponential backoff (default: no retries)"
        ),
    )
    resilience.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff before the first retry, doubling per attempt (default 0.05)",
    )
    resilience.add_argument(
        "--rebuild-budget",
        type=int,
        default=2,
        metavar="N",
        help=(
            "rebuild a broken worker pool up to N times before degrading to "
            "serial evaluation (default 2)"
        ),
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable hierarchical tracing and print the span tree to stderr "
            "when the command finishes (equivalent to SRADGEN_TRACE=1)"
        ),
    )
    obs.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the process metrics registry as JSON to FILE on exit",
    )
    return parser


def _read_address_file(path: str) -> List[int]:
    addresses: List[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                addresses.append(int(stripped, 0))
            except ValueError:
                raise SystemExit(
                    f"{path}:{line_number}: not an address: {stripped!r}"
                ) from None
    if not addresses:
        raise SystemExit(f"{path}: no addresses found")
    return addresses


def _load_sequence(args: argparse.Namespace) -> AddressSequence:
    if args.workload:
        pattern: AffineAccessPattern = build_pattern(args.workload, args.rows, args.cols)
        return pattern.to_sequence()
    addresses = _read_address_file(args.input)
    return AddressSequence.from_linear(
        name=args.input, addresses=addresses, rows=args.rows, cols=args.cols
    )


def _format_progress(record: EvalRecord, done: int, total: int) -> str:
    """One campaign progress line; tolerates records with empty notes."""
    source = "cached" if record.cached else f"{record.duration_s * 1000:.0f} ms"
    if record.status == "ok":
        detail = (
            f"delay {record.delay_ns:7.3f} ns   area {record.area_cells:10.1f} cu"
        )
        if record.has_power:
            detail += f"   e/access {record.energy_per_access_fj:8.1f} fJ"
    else:
        note_lines = record.note.splitlines()
        first_line = note_lines[0] if note_lines else ""
        detail = f"{record.status}: {first_line[:60]}"
    return (
        f"  [{done:>{len(str(total))}}/{total}] "
        f"{record.label:<42} {detail}  ({source})"
    )


def _count_cache_lines(cache: ResultCache) -> int:
    """Non-empty lines across every data file (base + writer segments)."""
    total = 0
    for path in cache.data_paths():
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def _compact_cache(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Merge segments and drop superseded lines; report the shrink.

    Compaction takes the directory's lock file, so it is safe to run while
    a service (or another CLI run using the sharded backend) is appending.
    """
    if not args.cache_dir:
        parser.error("--compact-cache requires --cache-dir")
    cache = ResultCache(args.cache_dir)
    path = cache.path
    before = _count_cache_lines(cache)
    segments = sum(1 for p in cache.data_paths() if p != path)
    try:
        cache.compact()
    except CacheLockTimeout as error:
        print(f"cannot compact: {error}", file=sys.stderr)
        return 1
    after = _count_cache_lines(cache)
    merged = f", {segments} segment(s) merged" if segments else ""
    print(
        f"compacted {path}: {before} -> {after} lines "
        f"({len(cache)} live records, {before - after} superseded dropped{merged})"
    )
    return 0


def _cache_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Print cache health figures: entries, stale lines, status mix."""
    if not args.cache_dir:
        parser.error("--cache-stats requires --cache-dir")
    cache = ResultCache(args.cache_dir)
    path = cache.path
    total_lines = _count_cache_lines(cache)
    live = len(cache)
    stale = total_lines - live
    segments = sum(1 for p in cache.data_paths() if p != path)
    print(f"cache {path}")
    print(f"  entries   {live} live record(s)")
    print(
        f"  lines     {total_lines} total ({live} live, {stale} superseded"
        f"{'' if stale == 0 else ' -- run --compact-cache'})"
    )
    if segments:
        print(f"  segments  {segments} writer segment file(s) -- run --compact-cache to merge")
    statuses: dict = {}
    for record in cache.records():
        status = record.get("status", "unknown")
        statuses[status] = statuses.get(status, 0) + 1
    for status in sorted(statuses):
        print(f"  status    {status}: {statuses[status]}")
    print(
        f"  counters  hits={metrics.counter('cache.hits')} "
        f"misses={metrics.counter('cache.misses')} "
        f"loads={metrics.counter('cache.loads')}"
    )
    return 0


def _parse_address(text: str) -> tuple:
    """Split a ``HOST:PORT`` --connect argument."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"--connect expects HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"--connect expects a numeric port, got {port!r}") from None


def _run_campaign(args: argparse.Namespace) -> int:
    campaign = build_campaign(args.campaign)
    overrides = cli_overrides(args)
    if overrides:
        # Explicit flow flags (--opt-level, --max-fsm-states, ...) re-configure
        # the whole grid (jobs are frozen dataclasses, so each override is a
        # fresh job with a fresh key).
        campaign = dataclasses.replace(
            campaign,
            jobs=[
                dataclasses.replace(job, spec=job.spec.with_overrides(**overrides))
                for job in campaign.jobs
            ],
        )
        settings = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        print(f"overriding flow settings: every job runs with {settings}")

    def progress(record: EvalRecord, done: int, total: int) -> None:
        print(_format_progress(record, done, total))

    if args.connect:
        # Remote path: ship the (possibly overridden) grid to a running
        # sradgen --serve instance; the spec dictionaries on the wire
        # reproduce the exact job keys, so the server's cache behaves as if
        # the campaign ran locally.
        from repro.service.client import ServiceUnavailable, run_campaign_remote

        host, port = _parse_address(args.connect)
        print(f"campaign {args.campaign!r}: {len(campaign)} jobs, remote {host}:{port}")
        try:
            result = run_campaign_remote(
                host,
                port,
                campaign,
                force=args.force,
                progress=None if args.quiet else progress,
                retry_policy=_retry_policy(args),
            )
        except ServiceUnavailable as error:
            # Distinct exit code, one actionable line, no traceback: "the
            # server is down" is an operational condition, not a crash.
            print(
                f"sradgen: campaign service unavailable: {error} "
                f"(is `sradgen --serve` running on {host}:{port}?)",
                file=sys.stderr,
            )
            return 3
    else:
        cache = ResultCache(args.cache_dir)
        workers = 0 if args.serial else args.workers
        print(
            f"campaign {args.campaign!r}: {len(campaign)} jobs, "
            f"cache {args.cache_dir or '(in-memory)'}"
        )
        with CampaignRunner(
            cache,
            workers=workers,
            progress=None if args.quiet else progress,
            retry_policy=_retry_policy(args),
            rebuild_budget=args.rebuild_budget,
        ) as runner:
            result = runner.run(campaign, force=args.force)
    print()
    print(result.describe())
    return _report_records(args, result.records)


def _report_records(args: argparse.Namespace, records: Sequence[EvalRecord]) -> int:
    """Print the lint/verify diagnostics of evaluated records; return the exit code.

    Shared by ``--campaign`` and ``--explore``.  Proven inequivalence
    outranks everything: exit 2 > 1 (error records or lint errors) > 0.
    """
    errors = sum(1 for record in records if record.status == "error")
    lint_errors = _report_lint(records) if args.lint else 0
    verify_failures = _report_verify(records) if args.verify else 0
    if verify_failures:
        return 2
    return 1 if errors or lint_errors else 0


def _report_lint(records: Sequence[EvalRecord]) -> int:
    """Print design-lint findings from linted records; return error count.

    Cached records carry no findings -- lint is volatile evaluation
    metadata, never serialised -- so only freshly evaluated records
    contribute, local or remote (the service streams findings beside the
    cached form).
    """
    lint_errors = 0
    for record in records:
        for finding in record.lint_findings:
            severity = finding.get("severity", "")
            if severity == "error":
                lint_errors += 1
            print(
                f"lint: {record.label}: {finding.get('location', '')}: "
                f"{severity} [{finding.get('rule', '')}] "
                f"{finding.get('message', '')}",
                file=sys.stderr,
            )
    fresh = sum(1 for record in records if not record.cached)
    print(
        f"lint: {lint_errors} error-severity finding(s) over "
        f"{fresh} freshly evaluated record(s)"
    )
    return lint_errors


def _report_verify(records: Sequence[EvalRecord]) -> int:
    """Print CEC verdicts from verified records; return failure count.

    Same volatility contract as lint: cached records carry no verdict, so
    only freshly evaluated records contribute, local or remote.
    """
    failures = 0
    for record in records:
        verdict = record.verify_result
        if verdict is None:
            continue
        if not verdict.get("equivalent", True):
            failures += 1
            cex = verdict.get("counterexample") or {}
            print(
                f"verify: {record.label}: NOT equivalent "
                f"({verdict.get('method', '?')}): output "
                f"{cex.get('port', '?')} differs at cycle {cex.get('cycle', '?')}",
                file=sys.stderr,
            )
    fresh = sum(1 for record in records if not record.cached)
    print(
        f"verify: {failures} proven-inequivalent record(s) over "
        f"{fresh} freshly evaluated record(s)"
    )
    return failures


def _serve(args: argparse.Namespace) -> int:
    """Run the campaign service until SIGINT/SIGTERM (drains, then exits)."""
    import asyncio
    import signal

    from repro.service.server import CampaignService

    service = CampaignService(
        cache=ResultCache(args.cache_dir, backend="sharded"),
        workers=0 if args.serial else args.workers,
        retry_policy=_retry_policy(args),
        rebuild_budget=args.rebuild_budget,
    )

    async def _main() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"sradgen service listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover  # sradlint: disable=ast.silent-except -- platform without signal handlers; service still serves
                pass
        await service.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover  # sradlint: disable=ast.silent-except -- Ctrl-C is the documented way to stop the service
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; die quietly like cat does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _mode(args: argparse.Namespace) -> str:
    """Short label for the selected mode, used as the root span detail."""
    if args.list_campaigns:
        return "list-campaigns"
    if args.compact_cache:
        return "compact-cache"
    if args.cache_stats:
        return "cache-stats"
    if args.serve:
        return "serve"
    if args.campaign:
        return f"campaign {args.campaign}"
    if args.explore:
        return "explore"
    return "generate"


def _retry_policy(args: argparse.Namespace) -> Optional["RetryPolicy"]:
    """The RetryPolicy the --retry-* flags describe, or None (off)."""
    if args.retry_max is None:
        return None
    from repro.resilience.retry import RetryPolicy

    return RetryPolicy(
        max_retries=args.retry_max, base_backoff_s=args.retry_backoff
    )


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace:
        enable_tracing()
    try:
        with span("sradgen", detail=_mode(args)):
            return _execute(args, parser)
    finally:
        # Observability output is emitted even when the action fails:
        # a partial trace of a crashed campaign is exactly when you want one.
        if args.trace:
            rendered = render_spans(get_tracer().roots)
            if rendered:
                print(rendered, file=sys.stderr)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(metrics.to_json() + "\n")


def _execute(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.list_campaigns:
        # Descriptions come from the registry, so listing never expands a grid.
        for name in available_campaigns():
            print(f"{name:<18} {campaign_description(name)}")
        return 0

    if args.compact_cache:
        return _compact_cache(args, parser)

    if args.cache_stats:
        return _cache_stats(args, parser)

    if args.serve:
        return _serve(args)

    if args.campaign:
        return _run_campaign(args)

    if args.rows is None or args.cols is None:
        parser.error("--rows and --cols are required with --input/--workload")
    sequence = _load_sequence(args)
    # The CLI builds exactly one FlowSpec and hands it down; every flow flag
    # is one namespace attribute named after its spec field.
    spec = FlowSpec.from_cli_args(args)

    if args.explore:
        if not args.workload:
            parser.error("--explore requires --workload (it needs the loop nest)")
        result = explore(build_pattern(args.workload, args.rows, args.cols), spec=spec)
        print(result.describe())
        return _report_records(args, result.points + result.skipped)

    try:
        result = generate(
            sequence,
            emit_vhdl_text=bool(args.vhdl) or not args.verilog,
            emit_verilog_text=bool(args.verilog),
            synthesize=args.report or bool(args.lint) or bool(args.verify),
            spec=spec,
        )
    except MappingError as error:
        print(f"mapping failed: {error}", file=sys.stderr)
        print(
            "hint: the sequence violates an SRAG restriction; a CntAG or FSM "
            "generator may fit instead (--explore with --workload compares "
            "every architecture).",
            file=sys.stderr,
        )
        return 1

    print(result.describe())
    lint_failed = False
    if args.lint and result.synthesis is not None:
        report = result.synthesis.lint_report
        if report is not None:
            for finding in report.findings:
                print(f"lint: {finding.render()}", file=sys.stderr)
            print(f"lint: {report.summary()}")
            lint_failed = report.has_errors
    verify_failed = False
    if args.verify and result.synthesis is not None:
        verdict = result.synthesis.verify_report
        if verdict is not None:
            print(f"verify: {verdict.summary()}")
            if not verdict.equivalent:
                assert verdict.counterexample is not None
                print(
                    f"verify: {verdict.counterexample.describe()}",
                    file=sys.stderr,
                )
                verify_failed = True
    if args.vhdl:
        with open(args.vhdl, "w", encoding="utf-8") as handle:
            handle.write(result.vhdl or "")
        print(f"wrote VHDL to {args.vhdl}")
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(result.verilog or "")
        print(f"wrote Verilog to {args.verilog}")
    # Proven inequivalence outranks everything: exit 2 > 1 > 0.
    if verify_failed:
        return 2
    return 1 if lint_failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
