"""``sradgen`` command-line tool.

A thin front end over :mod:`repro.core.sradgen`, mirroring the paper's
SRAdGen utility: read an address sequence, run the mapping procedure, and
emit synthesisable HDL plus (optionally) area/delay figures.  On top of
that, ``--campaign`` drives the batch engine (:mod:`repro.engine`): cached,
parallel design-space exploration over whole workload/geometry/style grids.

Each run is one mode, picked by its source option: ``--input`` or
``--workload`` (``generate``, or ``explore`` with ``--explore``),
``--campaign`` (run locally, or against a running ``--serve`` with
``--connect``), ``--list-campaigns``, ``--compact-cache``,
``--cache-stats`` or ``--serve``.  :data:`_MODES` names the options each
mode reads and requires; README's Quickstart has the same table.  Usage
examples::

    sradgen --input addresses.txt --rows 4 --cols 4 --vhdl srag.vhd
    sradgen --workload motion_est_read --rows 16 --cols 16 --report
    sradgen --workload dct --rows 8 --cols 8 --explore
    sradgen --campaign demo --cache-dir .sradgen_cache --opt-level 1
    sradgen --serve --cache-dir .svc_cache --port 8787
    sradgen --campaign smoke --connect 127.0.0.1:8787

Exit status:

* 0: a result (report, HDL, exploration, campaign, listing, cache figures,
  or a service stopped with Ctrl-C).
* 1: error records or lint errors (``--campaign``, ``--explore``,
  ``--lint``); a mapping failure (one line and a hint); or one stderr line
  for a bad input file, output path or cache directory, or a compaction
  that could not take the cache lock.  A closed stdout pipe also exits 1,
  quietly.
* 2: a usage error (argparse, a malformed ``--connect`` address or an
  option the selected mode cannot run without among them), an option the
  selected mode does not read, or a proven inequivalence under
  ``--verify``, which outranks 1.
* 3: ``--connect`` found no campaign service.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

# Module level holds only what build_parser and every mode need.  Each mode
# imports the stack it runs inside its own handler, so ``--list-campaigns``
# never loads the generators and ``--report`` never loads the engine.
from repro.engine.sweep import (
    CAMPAIGNS,
    available_campaigns,
    build_campaign,
    campaign_description,
)
from repro.flow import DEFAULT_SPEC, cli_overrides
from repro.obs import enable_tracing, get_tracer, metrics, render_spans, span
from repro.workloads.registry import WORKLOADS, build_pattern
from repro.workloads.sequences import AddressSequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cache import ResultCache
    from repro.engine.records import EvalRecord
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


_non_negative_int = _bounded_int(0)
_positive_int = _bounded_int(1)

#: Largest TCP port number.
_MAX_PORT = 65535


def _port(text: str) -> int:
    """Argparse type: a TCP port number, 0 to 65535."""
    value = _non_negative_int(text)
    if value > _MAX_PORT:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_PORT}, got {value}")
    return value


def _path(text: str) -> str:
    """Argparse type: a file or directory name; an empty one is refused."""
    if not text:
        raise argparse.ArgumentTypeError("expects a path, got ''")
    return text


def _parse_address(text: str) -> Tuple[str, int]:
    """Argparse type: a ``HOST:PORT`` address (``[HOST]:PORT`` for IPv6)."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host or "[" in host or "]" in host:
        raise argparse.ArgumentTypeError(
            f"expects HOST:PORT or [HOST]:PORT, got {text!r}"
        )
    try:
        return host, _port(port)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expects a port from 0 to {_MAX_PORT}, got {port!r}"
        ) from None


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
        type=_path,
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
            "merge the --cache-dir writer segments into its base file, "
            "keeping only the latest entry per key, then exit"
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
    parser.add_argument("--rows", type=_positive_int, help="memory array rows")
    parser.add_argument("--cols", type=_positive_int, help="memory array columns")
    parser.add_argument("--vhdl", type=_path, help="write generated VHDL to this file")
    parser.add_argument("--verilog", type=_path, help="write generated Verilog to this file")
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
        type=int,
        choices=(0, 1),
        help=(
            "logic-optimization effort for synthesis (0 = raw netlist, "
            "1 = constant folding, sharing, chain collapsing and dead-cell "
            "removal; default 0).  With --campaign, overrides every job's "
            "opt level; with --input/--workload, implies --report."
        ),
    )
    parser.add_argument(
        "--max-fsm-states",
        type=_positive_int,
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
        type=_path,
        help="persistent result-cache directory (campaigns resume from it)",
    )
    engine.add_argument(
        "--connect",
        type=_parse_address,
        metavar="HOST:PORT",
        help=(
            "run --campaign against a remote sradgen --serve instance "
            "instead of evaluating locally"
        ),
    )
    pool = engine.add_mutually_exclusive_group()
    pool.add_argument(
        "--workers",
        type=_non_negative_int,
        help="worker processes for campaign evaluation (default: min(cpus, 8))",
    )
    pool.add_argument(
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
    # Every option defaults to None or False, so _select_mode can tell it
    # was given; --serve applies these two defaults itself.
    service.add_argument(
        "--host",
        help="interface for --serve to bind (default 127.0.0.1)",
    )
    service.add_argument(
        "--port",
        type=_port,
        help="port for --serve to bind (default 0: pick a free port and print it)",
    )
    resilience = parser.add_argument_group("resilience options")
    resilience.add_argument(
        "--retry-max",
        type=_non_negative_int,
        metavar="N",
        help=(
            "retry transient evaluation failures up to N times with "
            "deterministic exponential backoff (default: no retries)"
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
        type=_path,
        metavar="FILE",
        help="write the process metrics registry as JSON to FILE on exit",
    )
    return parser


def _read_address_file(path: str) -> List[int]:
    addresses: List[int] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror}") from None
    except UnicodeDecodeError:
        raise SystemExit(f"{path}: not UTF-8 text") from None
    for line_number, line in enumerate(text.split("\n"), start=1):
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


def _check_output_path(path: str) -> None:
    """Refuse, before any work runs, an output file in a missing directory."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise SystemExit(f"{path}: no such directory: {directory}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise SystemExit(f"{path}: {error.strerror}") from None


def _existing_cache_dir(args: argparse.Namespace) -> str:
    """The --cache-dir a cache maintenance mode reads; it must already exist."""
    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"{args.cache_dir}: no such cache directory")
    return args.cache_dir


def _open_cache(directory: Optional[str]) -> ResultCache:
    """The result cache --campaign and --serve write; a file path is one line."""
    from repro.engine.cache import ResultCache

    try:
        return ResultCache(directory)
    except NotADirectoryError as error:
        raise SystemExit(str(error)) from None


def _build_pattern(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """The --workload pattern; an array it cannot tile is a usage error."""
    try:
        return build_pattern(args.workload, args.rows, args.cols)
    except ValueError as error:
        parser.error(f"--workload {args.workload}: {error}")


def _load_sequence(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> AddressSequence:
    if args.workload:
        return _build_pattern(args, parser).to_sequence()
    addresses = _read_address_file(args.input)
    try:
        return AddressSequence.from_linear(
            name=args.input, addresses=addresses, rows=args.rows, cols=args.cols
        )
    except ValueError as error:
        raise SystemExit(f"{args.input}: {error}") from None


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

    Compaction takes the directory's lock file, which every append also
    takes, so it is safe to run while a campaign or a service is appending.
    """
    from repro.engine.cache import CacheLockTimeout, ResultCache

    cache = ResultCache(_existing_cache_dir(args))
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
    from repro.engine.cache import ResultCache

    cache = ResultCache(_existing_cache_dir(args))
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


def _run_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    campaign = build_campaign(args.campaign)
    overrides = cli_overrides(args)
    if overrides:
        # Explicit flow flags (--opt-level, --max-fsm-states, ...) re-configure
        # the whole grid (jobs are frozen dataclasses, so each override is a
        # fresh job with a fresh key).
        campaign = dataclasses.replace(
            campaign,
            jobs=[
                dataclasses.replace(job, spec=dataclasses.replace(job.spec, **overrides))
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

        host, port = args.connect
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
        from repro.engine.runner import CampaignRunner

        cache = _open_cache(args.cache_dir)
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


def _serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the campaign service until SIGINT/SIGTERM (drains, then exits)."""
    import asyncio
    import signal

    from repro.service.server import CampaignService

    service = CampaignService(
        cache=_open_cache(args.cache_dir),
        workers=0 if args.serial else args.workers,
        retry_policy=_retry_policy(args),
    )

    async def _main() -> None:
        host, port = await service.start(
            "127.0.0.1" if args.host is None else args.host, args.port or 0
        )
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


def _list_campaigns(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Descriptions come from the registry, so listing never expands a grid.
    for name in available_campaigns():
        print(f"{name:<18} {campaign_description(name)}")
    return 0


def _explore(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis.explorer import explore

    spec = dataclasses.replace(DEFAULT_SPEC, **cli_overrides(args))
    result = explore(_build_pattern(args, parser), spec=spec)
    print(result.describe())
    return _report_records(args, result.points + result.skipped)


def _generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.core.mapping_params import MappingError
    from repro.core.sradgen import generate

    sequence = _load_sequence(args, parser)
    # The CLI builds exactly one FlowSpec and hands it down; every flow flag
    # is one namespace attribute named after its spec field.
    overrides = cli_overrides(args)
    try:
        result = generate(
            sequence,
            emit_vhdl_text=bool(args.vhdl),
            emit_verilog_text=bool(args.verilog),
            # Any flow flag (--opt-level, --lint, --verify) implies --report.
            synthesize=args.report or bool(overrides),
            spec=dataclasses.replace(DEFAULT_SPEC, **overrides),
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
    status = 0
    if args.lint:
        report = result.synthesis.lint_report
        for finding in report.findings:
            print(f"lint: {finding.render()}", file=sys.stderr)
        print(f"lint: {report.summary()}")
        status = int(report.has_errors)
    if args.verify:
        verdict = result.synthesis.verify_report
        print(f"verify: {verdict.summary()}")
        if not verdict.equivalent:
            print(f"verify: {verdict.counterexample.describe()}", file=sys.stderr)
            status = 2  # proven inequivalence outranks lint errors
    if args.vhdl:
        _write_text(args.vhdl, result.vhdl)
        print(f"wrote VHDL to {args.vhdl}")
    if args.verilog:
        _write_text(args.verilog, result.verilog)
        print(f"wrote Verilog to {args.verilog}")
    return status


class _Mode(NamedTuple):
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], int]
    reads: Tuple[str, ...]  # every option the mode reads, its source first
    requires: Tuple[str, ...] = ()  # the options it cannot run without


_FLOW = ("--opt-level", "--max-fsm-states", "--lint", "--verify")
_POOL = ("--workers", "--serial")
#: Options every mode reads.
_EVERY_MODE = ("--trace", "--metrics-out")

#: Mode name -> handler, the options it reads and the ones it requires.  A
#: command that gives an option outside its mode's row is a usage error.
_MODES = {
    "list-campaigns": _Mode(_list_campaigns, ("--list-campaigns",)),
    "compact-cache": _Mode(_compact_cache, ("--compact-cache", "--cache-dir"), ("--cache-dir",)),
    "cache-stats": _Mode(_cache_stats, ("--cache-stats", "--cache-dir"), ("--cache-dir",)),
    "serve": _Mode(_serve, ("--serve", "--cache-dir", *_POOL, "--host", "--port", "--retry-max")),
    "campaign": _Mode(
        _run_campaign,
        ("--campaign", *_FLOW, "--cache-dir", *_POOL, "--force", "--quiet", "--retry-max"),
    ),
    "campaign --connect": _Mode(
        _run_campaign,
        ("--campaign", "--connect", *_FLOW, "--force", "--quiet", "--retry-max"),
        ("--connect",),
    ),
    "explore": _Mode(
        _explore,
        ("--workload", "--explore", "--rows", "--cols", *_FLOW),
        ("--explore", "--rows", "--cols"),
    ),
    "generate": _Mode(
        _generate,
        ("--input", "--workload", "--rows", "--cols", "--vhdl", "--verilog", "--report",
         "--opt-level", "--lint", "--verify"),
        ("--rows", "--cols"),
    ),
}


def _select_mode(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    """The mode the options pick; refuses options outside its row or missing from it."""
    # Every option defaults to None or False, so any other value was given.
    given = [
        action.option_strings[0]
        for action in parser._actions
        if (value := getattr(args, action.dest, None)) is not None and value is not False
    ]
    source = given[0]  # argparse requires one source, and the sources come first
    if source == "--campaign":
        mode = "campaign --connect" if "--connect" in given else "campaign"
    elif source in ("--input", "--workload"):
        mode = "explore" if "--explore" in given else "generate"
    else:
        mode = source[2:]
    row = _MODES[mode]
    refused = [flag for flag in given if flag not in row.reads + _EVERY_MODE]
    if refused:
        parser.error(f"{mode} mode does not read {', '.join(refused)}")
    missing = [flag for flag in row.requires if flag not in given]
    if missing:
        parser.error(f"{mode} mode requires {', '.join(missing)}")
    return mode


def _retry_policy(args: argparse.Namespace) -> Optional["RetryPolicy"]:
    """The RetryPolicy the --retry-* flags describe, or None (off)."""
    if args.retry_max is None:
        return None
    from repro.resilience.retry import RetryPolicy

    return RetryPolicy(max_retries=args.retry_max)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; die quietly like cat does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mode = _select_mode(args, parser)
    for path in (args.vhdl, args.verilog, args.metrics_out):
        if path:
            _check_output_path(path)
    if args.trace:
        enable_tracing()
    usage_error = False
    try:
        with span("sradgen", detail=f"campaign {args.campaign}" if args.campaign else mode):
            return _MODES[mode].run(args, parser)
    except SystemExit as exit_:
        usage_error = exit_.code == 2
        raise
    finally:
        # Observability output is emitted even when the action fails:
        # a partial trace of a crashed campaign is exactly when you want one.
        # A usage error ran nothing, so its one line stays the last one.
        if args.trace and not usage_error:
            rendered = render_spans(get_tracer().roots)
            if rendered:
                print(rendered, file=sys.stderr)
        if args.metrics_out:
            _write_text(args.metrics_out, metrics.to_json() + "\n")


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
