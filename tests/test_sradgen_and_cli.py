"""Tests for the SRAdGen flow facade and the sradgen command-line tool."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _parse_address, build_parser, main
from repro.core.mapping_params import MappingError
from repro.core.sradgen import generate
from repro.workloads import motion_estimation, patterns


# ---------------------------------------------------------------------------
# generate() facade
# ---------------------------------------------------------------------------

def test_generate_produces_vhdl_and_mappings():
    result = generate(motion_estimation.read_sequence(4, 4, 2, 2))
    assert result.vhdl is not None
    assert "entity" in result.vhdl
    assert result.verilog is None
    assert result.synthesis is None
    assert result.row_mapping.div_count == 2
    assert result.col_mapping.div_count == 1
    text = result.describe()
    assert "row address sequence mapping" in text
    assert "dC" in text


def test_generate_with_verilog_and_synthesis():
    result = generate(
        motion_estimation.read_sequence(4, 4, 2, 2),
        emit_vhdl_text=False,
        emit_verilog_text=True,
        synthesize=True,
    )
    assert result.vhdl is None
    assert result.verilog is not None and "module" in result.verilog
    assert result.synthesis is not None
    assert result.synthesis.delay_ns > 0
    assert result.synthesis.summary() in result.describe()


def test_generate_with_synthesis_leaves_the_generator_netlist_pre_flow():
    from repro.hdl.emit import emit_vhdl

    sequence = motion_estimation.read_sequence(8, 8, 2, 2)
    plain = generate(sequence)
    result = generate(sequence, synthesize=True)
    assert result.synthesis.buffers_inserted > 0
    netlist = result.generator.netlist
    assert result.synthesis.netlist is not netlist
    assert len(netlist.cells) == len(plain.generator.netlist.cells)
    assert emit_vhdl(netlist) == result.vhdl == plain.vhdl


def test_generate_rejects_unmappable_sequence():
    with pytest.raises(MappingError):
        generate(patterns.serpentine_sequence(4, 4))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_parser_requires_source_and_dimensions():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--rows", "4", "--cols", "4"])
    args = parser.parse_args(["--workload", "fifo", "--rows", "4", "--cols", "4"])
    assert args.workload == "fifo"


def test_cli_builtin_workload_report(capsys):
    exit_code = main(["--workload", "motion_est_read", "--rows", "4", "--cols", "4", "--report"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "dC = 2" in captured.out
    assert "delay" in captured.out


def test_cli_reads_address_file_and_writes_hdl(tmp_path, capsys):
    address_file = tmp_path / "addresses.txt"
    address_file.write_text("# incremental\n" + "\n".join(str(i) for i in range(16)) + "\n")
    vhdl_file = tmp_path / "out.vhd"
    verilog_file = tmp_path / "out.v"
    exit_code = main([
        "--input", str(address_file),
        "--rows", "4", "--cols", "4",
        "--vhdl", str(vhdl_file),
        "--verilog", str(verilog_file),
    ])
    assert exit_code == 0
    assert "entity" in vhdl_file.read_text()
    assert "module" in verilog_file.read_text()
    assert "wrote VHDL" in capsys.readouterr().out


def test_cli_unmappable_sequence_reports_error(tmp_path, capsys):
    address_file = tmp_path / "bad.txt"
    address_file.write_text("1\n2\n3\n4\n3\n2\n1\n4\n")
    exit_code = main(["--input", str(address_file), "--rows", "1", "--cols", "5"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "mapping failed" in captured.err
    assert "--explore" in captured.err and "CntAG or FSM" in captured.err


def test_cli_rejects_malformed_address_file(tmp_path):
    address_file = tmp_path / "bad.txt"
    address_file.write_text("zero\n")
    with pytest.raises(SystemExit):
        main(["--input", str(address_file), "--rows", "2", "--cols", "2"])


@pytest.mark.parametrize("address", ["99", "-1"])
def test_cli_rejects_address_outside_array_in_one_line(tmp_path, address):
    address_file = tmp_path / "outside.txt"
    address_file.write_text(f"0\n{address}\n")
    with pytest.raises(SystemExit) as raised:
        main(["--input", str(address_file), "--rows", "4", "--cols", "4"])
    assert str(raised.value).startswith(
        f"{address_file}: linear address {address} outside 0..15"
    )


@pytest.mark.parametrize("name, message", [("missing.txt", "No such file or directory"),
                                           (".", "Is a directory")])
def test_cli_reports_an_unreadable_input_file_in_one_line(tmp_path, name, message):
    path = tmp_path / name
    with pytest.raises(SystemExit) as raised:
        main(["--input", str(path), "--rows", "4", "--cols", "4"])
    assert raised.value.code == f"{path}: {message}"


def test_cli_reports_a_non_utf8_input_file_in_one_line(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe1\x00")
    with pytest.raises(SystemExit) as raised:
        main(["--input", str(path), "--rows", "4", "--cols", "4"])
    assert raised.value.code == f"{path}: not UTF-8 text"


@pytest.mark.parametrize("argv", [
    "--workload strided --rows 5 --cols 8 --report",
    "--workload motion_est_read --rows 1 --cols 4",
    "--workload block_raster --rows 1 --cols 4 --explore",
])
def test_cli_workload_that_cannot_tile_the_array_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv.split())
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --workload {argv.split()[1]}: " in err
    assert "does not" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["--campaign smoke --serial", "--serve --port 0"])
def test_cli_cache_dir_naming_a_file_is_refused_before_any_job(tmp_path, mode, capsys):
    path = tmp_path / "afile"
    path.write_text("")
    with pytest.raises(SystemExit) as raised:
        main(mode.split() + ["--cache-dir", str(path)])
    assert raised.value.code == f"{path}: not a directory"
    captured = capsys.readouterr()
    assert "[" not in captured.out and captured.err == ""
    assert path.read_text() == ""


@pytest.mark.parametrize("flag", ["--vhdl", "--verilog", "--metrics-out"])
def test_cli_refuses_an_output_file_in_a_missing_directory_before_any_work(
    tmp_path, flag, capsys
):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as raised:
        main(["--workload", "fifo", "--rows", "4", "--cols", "4", "--report",
              flag, str(target)])
    assert raised.value.code == f"{target}: no such directory: {target.parent}"
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as raised:
        main(["--workload", "fifo", "--rows", "4", "--cols", "4", flag, str(tmp_path)])
    assert raised.value.code == f"{tmp_path}: Is a directory"


@pytest.mark.parametrize("mode", ["--cache-stats", "--compact-cache"])
def test_cli_cache_maintenance_needs_an_existing_cache_dir(tmp_path, mode, capsys):
    missing = tmp_path / "no_cache"
    with pytest.raises(SystemExit) as raised:
        main([mode, "--cache-dir", str(missing)])
    assert raised.value.code == f"{missing}: no such cache directory"
    assert capsys.readouterr().out == "" and not missing.exists()
    # A campaign still creates the cache directory it is given.
    assert main(["--campaign", "smoke", "--serial", "--quiet",
                 "--cache-dir", str(missing)]) == 0
    capsys.readouterr()
    assert main([mode, "--cache-dir", str(missing)]) == 0
    assert "16 live record" in capsys.readouterr().out


def test_cli_explore_refuses_an_input_file_before_reading_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--input", str(tmp_path / "missing.txt"), "--rows", "4", "--cols", "4",
              "--explore"])
    assert raised.value.code == 2
    assert "--explore requires --workload" in capsys.readouterr().err


_HDL_OUTSIDE_SINGLE_DESIGN = "--vhdl/--verilog require --input/--workload without --explore"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--campaign", "smoke", "--serial", "--quiet", "--vhdl", "{out}"],
         _HDL_OUTSIDE_SINGLE_DESIGN),
        (["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore",
          "--verilog", "{out}"],
         _HDL_OUTSIDE_SINGLE_DESIGN),
        (["--list-campaigns", "--vhdl", "{out}"], _HDL_OUTSIDE_SINGLE_DESIGN),
        (["--workload", "fifo", "--rows", "4", "--cols", "4",
          "--connect", "127.0.0.1:1"],
         "--connect requires --campaign"),
        (["--list-campaigns", "--connect", "127.0.0.1:1"], "--connect requires --campaign"),
    ],
    ids=["vhdl-campaign", "verilog-explore", "vhdl-list", "connect-workload", "connect-list"],
)
def test_cli_flag_the_mode_would_ignore_is_a_usage_error(tmp_path, argv, message, capsys):
    """Each of these used to exit 0 without writing the file or connecting."""
    out = tmp_path / "missing" / "out.hdl"
    with pytest.raises(SystemExit) as raised:
        main([arg.format(out=out) for arg in argv])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # Raised before the output-path check, which would name the missing dir.
    assert captured.err.splitlines()[-1] == f"sradgen: error: {message}"


@pytest.mark.parametrize("flag", ["--rows", "--cols"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_non_positive_dimensions_as_usage_error(flag, value, capsys):
    argv = ["--workload", "fifo", "--rows", "4", "--cols", "4", "--report"]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert f"{flag}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--workers", "--retry-max"])
def test_cli_rejects_negative_counts_as_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--campaign", "smoke", "--quiet", flag, "-3"])
    assert raised.value.code == 2
    assert f"{flag}: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_cli_rejects_out_of_range_serve_port_as_usage_error(port, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--serve", "--port", port])
    assert raised.value.code == 2
    assert "argument --port: must be" in capsys.readouterr().err


def test_cli_rejects_out_of_range_connect_port_in_one_line(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--campaign", "smoke", "--connect", "127.0.0.1:70000"])
    assert raised.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "sradgen: error: argument --connect: expects a port from 0 to 65535, got '70000'"
    )


@pytest.mark.parametrize(
    "text, address",
    [("[::1]:7341", ("::1", 7341)), ("::1:7341", ("::1", 7341)), ("localhost:0", ("localhost", 0))],
)
def test_connect_address_strips_ipv6_brackets(text, address):
    assert _parse_address(text) == address


@pytest.mark.parametrize("text", ["[::1:7341", "::1]:7341", "[::1]7341", "[]:7341", "7341"])
def test_connect_address_rejects_unbalanced_brackets_in_one_line(text, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--campaign", "smoke", "--connect", text])
    assert raised.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sradgen: error: argument --connect: expects HOST:PORT or [HOST]:PORT, got {text!r}"
    )


def test_cli_explore(capsys):
    exit_code = main(["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "design space" in captured.out
    assert "SRAG" in captured.out


def test_cli_explore_reports_an_unexpected_failure_and_exits_1(capsys, monkeypatch):
    from repro.generators.srag_design import SragDesign

    def crash(self, spec):
        raise RuntimeError("synthesis crashed")

    monkeypatch.setattr(SragDesign, "synthesize", crash)
    exit_code = main(["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "SRAG[two-hot]          error: Traceback" in out
    assert "RuntimeError: synthesis crashed" in out
    assert "CntAG[decoders]" in out


def test_cli_report_opt_level_shrinks_area(capsys):
    base_args = ["--workload", "dct", "--rows", "8", "--cols", "8", "--report"]

    def area_of(args):
        assert main(args) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "area =" in line:
                return float(line.split("area =")[1].split("cell units")[0])
        raise AssertionError(f"no area line in output:\n{out}")

    raw = area_of(base_args)
    optimized = area_of(base_args + ["--opt-level", "1"])
    assert optimized < raw


# ---------------------------------------------------------------------------
# Campaign progress formatting
# ---------------------------------------------------------------------------

def _record(status, note="", **extra):
    from repro.engine.records import EvalRecord

    return EvalRecord(
        workload="fifo", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k", status=status, note=note, **extra,
    )


def test_format_progress_ok_record():
    from repro.cli import _format_progress

    line = _format_progress(
        _record("ok", delay_ns=1.25, area_cells=420.0, duration_s=0.01), 3, 16
    )
    assert "[ 3/16]" in line
    assert "delay" in line and "area" in line
    assert "10 ms" in line


def test_format_progress_ok_record_with_power():
    from repro.cli import _format_progress

    line = _format_progress(
        _record(
            "ok", delay_ns=1.0, area_cells=1.0,
            energy_per_access_fj=123.4, avg_power_uw=12.3,
        ),
        1, 2,
    )
    assert "e/access" in line and "123.4 fJ" in line


def test_format_progress_skipped_record():
    from repro.cli import _format_progress

    line = _format_progress(_record("skipped", note="not applicable\nmore"), 1, 2)
    assert "skipped: not applicable" in line
    assert "more" not in line


def test_format_progress_error_record_with_empty_note():
    """Regression: an error record with an empty note must not crash."""
    from repro.cli import _format_progress

    line = _format_progress(_record("error", note=""), 2, 2)
    assert "error:" in line
    cached = _format_progress(_record("error", note="", cached=True), 2, 2)
    assert "(cached)" in cached


def test_cli_campaign_opt_level_override(capsys):
    """--opt-level re-levels every job of a campaign instead of being ignored."""
    assert main(["--campaign", "smoke", "--serial", "--opt-level", "1"]) == 0
    out = capsys.readouterr().out
    assert "overriding flow settings: every job runs with opt_level=1" in out
    # Every per-job progress line for this campaign carries the O1 marker.
    job_lines = [line for line in out.splitlines() if line.startswith("  [")]
    assert job_lines and all(" O1 " in line for line in job_lines)


def test_cli_compact_cache_drops_superseded_lines(tmp_path, capsys):
    """--compact-cache merges the runs' segments into one line per live key."""
    cache_dir = str(tmp_path / "cache")
    results = tmp_path / "cache" / "results.jsonl"
    segments = tmp_path / "cache" / "segments"

    def segment_lines():
        return sum(len(path.read_text().splitlines()) for path in segments.iterdir())

    base = ["--campaign", "smoke", "--cache-dir", cache_dir, "--serial", "--quiet"]
    assert main(base) == 0
    lines_after_first = segment_lines()
    # --force appends a superseding line for every key (in a second segment).
    assert main(base + ["--force"]) == 0
    capsys.readouterr()
    lines_before = segment_lines()
    assert lines_before == 2 * lines_after_first and not results.exists()

    assert main(["--compact-cache", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert f"{lines_before} -> {lines_after_first} lines" in out
    assert "2 segment(s) merged" in out and not any(segments.iterdir())
    assert len(results.read_text().splitlines()) == lines_after_first
    # The compacted cache still serves every record.
    assert main(base) == 0
    assert "cache hits 16/16" in capsys.readouterr().out


def test_cli_compact_cache_requires_cache_dir(capsys):
    with pytest.raises(SystemExit):
        main(["--compact-cache"])
    assert "--cache-dir" in capsys.readouterr().err


def test_cli_power_campaign_end_to_end(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--campaign", "power", "--cache-dir", cache_dir, "--serial"]) == 0
    out = capsys.readouterr().out
    assert "campaign 'power'" in out
    assert "e/access" in out and "fJ" in out
    # Re-running resumes entirely from the persisted cache.
    assert main(["--campaign", "power", "--cache-dir", cache_dir, "--serial"]) == 0
    warm = capsys.readouterr().out
    assert "cache hits 36/36" in warm


#: Loaded only by the modes that evaluate jobs (``--campaign``, ``--serve``,
#: ``--explore``) or maintain a cache.
_ENGINE_STACK = (
    "repro.engine.runner", "repro.engine.scheduler", "repro.engine.cache",
    "repro.service", "repro.analysis", "multiprocessing",
    "concurrent.futures.process", "asyncio", "uuid",
)
#: The non-SRAG architectures, then the FSM/QM synthesis they need.
_BASELINE_GENERATORS = (
    "repro.generators.fsm_based", "repro.generators.arithmetic",
    "repro.generators.counter_based", "repro.generators.sfm_pointer",
)
_FSM_QM = ("repro.synth.fsm", "repro.synth.logic")
_CHECKERS = ("repro.lint", "repro.verify")
#: Code no mode runs: the test oracles (the memory models among them; the
#: workloads need only ``repro.memory.layout``), the repository's own AST
#: lint rules, and the modules those used to be in ``repro``.
_NEVER_LOADED = (
    "oracles", "sradlint_rules", "repro.lint.ast_rules", "repro.verify.cover",
    "repro.core.two_hot", "repro.memory.cell_array", "repro.memory.ram",
    "repro.memory.addm", "repro.memory.sfm",
)
#: What a ``--connect`` client never runs: it only ships jobs and reads records.
_EVALUATION = (
    "repro.engine.runner", "repro.engine.scheduler", "repro.generators.",
    "repro.hdl.simulator", "repro.hdl.compiled",
) + _FSM_QM


def test_cli_import_loads_neither_lint_nor_verify():
    """Start-up stays lean: each mode loads only the stack it runs.

    ``import repro.cli`` and ``--list-campaigns`` load no design code;
    ``--report`` adds the SRAG and its synthesis flow but no engine and no
    baseline generator; a campaign loads every generator.  The design
    checker and the SAT-based verifier load only when a run asks for
    ``--lint``/``--verify``, and then without the AST lint rules, any
    test oracle or the FSM/QM synthesis stack.  One fresh interpreter runs
    the modes in turn and prints its loaded modules after each; another
    runs ``--report --lint --verify`` alone, and a third imports the
    ``--connect`` client alone, which loads no evaluation code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import contextlib, io, json, sys, repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert repro.cli.main(argv.split()) == 0\n"
        "    print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)

    def run_modes(*modes):
        lines = subprocess.run(
            [sys.executable, "-c", script, *modes],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        return [json.loads(line) for line in lines]

    imported, listed, reported, campaigned = run_modes(
        "--list-campaigns",
        "--workload fifo --rows 4 --cols 4 --report",
        "--campaign smoke --serial --quiet",
    )
    # In an interpreter of its own, so no earlier mode's modules count.
    _, checked = run_modes("--workload fifo --rows 4 --cols 4 --report --lint --verify")
    client = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys, repro.service.client\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)

    def loaded(modules, prefixes):
        return [name for name in modules if name.startswith(prefixes)]

    no_design = ("repro.core", "repro.generators") + _FSM_QM + _ENGINE_STACK + _CHECKERS
    assert loaded(imported, no_design + _NEVER_LOADED) == []
    assert loaded(client, _EVALUATION) == []
    assert loaded(listed, no_design) == []
    assert loaded(reported, _BASELINE_GENERATORS + _FSM_QM + _ENGINE_STACK + _CHECKERS) == []
    assert "repro.core.sradgen" in reported
    assert loaded(campaigned, _CHECKERS) == []
    assert set(_BASELINE_GENERATORS + _FSM_QM) <= set(campaigned)
    assert {"repro.lint.design", "repro.verify.cec"} <= set(checked)
    assert loaded(checked, _NEVER_LOADED + _FSM_QM) == []
