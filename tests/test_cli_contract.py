"""The CLI contract, checked as a property over argv drawn from the parser.

``repro.cli``'s docstring lists the exit statuses.  For any argv, ``main``
returns one of them or raises ``SystemExit``; no other exception escapes.
A failure says why in one stderr line:

* a usage error (exit 2) ends stderr with one ``sradgen: error:`` line,
  after argparse's usage text;
* a bad file, path or cache (exit 1) is a ``SystemExit`` whose message is
  one line;
* exit 3 prints one ``sradgen: campaign service unavailable`` line.

A returned 1 or 2 is a result (error records, lint errors, a proven
inequivalence, a mapping failure), and the run prints it.

Options and their values are drawn from ``build_parser()``'s own actions,
so a new option is fuzzed without editing this file.  Its source is one of
the source group's options, and ``--input`` files come from a small
grammar: numbers, comments, blank lines, negative and out-of-range
addresses, non-ASCII text and raw bytes.  The scope keeps the property
cheap and in-process: arrays of at most 8x8, the ``smoke`` campaign grid,
no pool above one worker, and ``--connect`` only to malformed or refused
addresses.  ``--serve``, a live server and larger pools start sockets or
processes; the service and chaos tests own them.
"""

import contextlib
import io
import os
import socket
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.obs import Tracer, get_tracer, set_tracer

PARSER = build_parser()
(_SOURCE_GROUP,) = PARSER._mutually_exclusive_groups
#: The source options, without ``--serve`` (it serves until stopped).
SOURCES = [a for a in _SOURCE_GROUP._group_actions if a.dest != "serve"]
OPTIONS = [
    a for a in PARSER._actions
    if a.option_strings and a.dest != "help" and a not in _SOURCE_GROUP._group_actions
]

#: Exit statuses the ``repro.cli`` docstring documents.
EXIT_CODES = {0, 1, 2, 3}

#: Files every example's working directory holds.
INPUT = "input.txt"
A_FILE = "file.txt"
A_DIRECTORY = "sub"


#: Stands for a loopback address that refuses connections: each run binds
#: a port, never listens on it, and puts its address here.
REFUSED = "<refused>"


def _ints(low, high):
    return st.integers(low, high).map(str)


def _mostly(valid, invalid):
    """``valid`` seven times in eight, else ``invalid``."""
    return st.sampled_from([valid] * 7 + [invalid]).flatmap(lambda s: s)


#: Any path-like argument: a new file or directory, one in a missing
#: directory, an existing file or directory, or nothing.
_PATHS = st.sampled_from(["out.txt", "out.txt", "missing/out.txt", A_FILE, A_DIRECTORY, ""])

#: Values for options whose plain draw would leave the scope above.
_SCOPED = {
    "input": _mostly(st.just(INPUT), st.sampled_from(["missing.txt", A_DIRECTORY])),
    "rows": _mostly(_ints(1, 8), _ints(-1, 0)),
    "cols": _mostly(_ints(1, 8), _ints(-1, 0)),
    "campaign": _mostly(st.just("smoke"), st.just("bogus")),
    "workers": _ints(-1, 1),
    "retry_max": _ints(-1, 2),
    "connect": st.sampled_from(
        [REFUSED, "bad", "[::1:7341", "127.0.0.1:70000", ":7341"]
    ),
}


#: Options a source needs to get past argument checking, added for it
#: seven times in eight.
_COMPANIONS = {
    "input": ("--rows", "--cols"),
    "workload": ("--rows", "--cols"),
    "compact_cache": ("--cache-dir",),
    "cache_stats": ("--cache-dir",),
}


def _value(action):
    """The strategy for one option's value."""
    if action.dest in _SCOPED:
        return _SCOPED[action.dest]
    if action.choices is not None:
        return _mostly(st.sampled_from([str(c) for c in action.choices]), st.just("bogus"))
    if action.type is not None:
        return _mostly(_ints(-2, 600), st.sampled_from(["x", "", "1.5"]))
    return _PATHS


@st.composite
def argvs(draw):
    """One source option, then any subset of the other options."""
    source = draw(st.sampled_from(SOURCES))
    argv = [source.option_strings[0]]
    if source.nargs != 0:
        argv.append(draw(_value(source)))
    chosen = draw(st.lists(st.sampled_from(OPTIONS), max_size=5, unique=True))
    by_flag = {action.option_strings[0]: action for action in OPTIONS}
    for flag in _COMPANIONS.get(source.dest, ()):
        if by_flag[flag] not in chosen and draw(_mostly(st.just(True), st.just(False))):
            chosen.append(by_flag[flag])
    for action in chosen:
        if action.nargs == 0:
            argv += [action.option_strings[0]] * draw(st.integers(1, 2))
        else:
            argv += [action.option_strings[0], draw(_value(action))]
    if source.dest == "campaign" and "--workers" not in argv:
        argv.append("--serial")  # the default pool has more than one worker
    return argv


_GOOD_LINES = st.lists(
    st.one_of(
        _ints(0, 63),
        st.integers(0, 63).map(hex),
        _ints(0, 63).map(lambda n: f"{n}  # trailing comment"),
        st.sampled_from(["", "   ", "# comment"]),
    ),
    max_size=12,
)
_BAD_LINE = st.one_of(
    _ints(-9, -1),
    _ints(64, 5000),
    st.sampled_from(["ñ", "١٢", "12abc", "0x", "½"]),
)
#: ``--input`` contents: address lines, the same with one bad line among
#: them, or raw (mostly non-UTF-8) bytes.
INPUT_FILES = st.one_of(
    _GOOD_LINES.map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(_GOOD_LINES, _BAD_LINE, _GOOD_LINES).map(
        lambda parts: "\n".join(parts[0] + [parts[1]] + parts[2]).encode("utf-8")
    ),
    st.binary(max_size=16),
)


@contextlib.contextmanager
def _working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _run(argv, directory):
    """``main(argv)`` in ``directory``: (exit status, message, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    # --trace switches the process-global tracer on; keep it to this run.
    saved = get_tracer()
    set_tracer(Tracer(enabled=saved.enabled))
    try:
        with _working_directory(directory), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status, message = main(argv), None
            except SystemExit as exit_:
                status, message = exit_.code, exit_.code
    finally:
        set_tracer(saved)
    if isinstance(status, str):
        status = 1  # what the interpreter exits with after printing it
    return status, message, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=argvs(), input_file=INPUT_FILES)
# A workload that cannot tile the array is a usage error.
@example(argv=["--workload", "strided", "--rows", "5", "--cols", "8"], input_file=b"")
@example(argv=["--workload", "motion_est_read", "--rows", "1", "--cols", "4"], input_file=b"")
@example(argv=["--workload", "block_raster", "--rows", "1", "--cols", "4"], input_file=b"")
# An undecodable --input is one line.
@example(argv=["--input", INPUT, "--rows", "4", "--cols", "4"], input_file=b"\xff\xfe1\n")
# --cache-dir naming a regular file is refused before any job runs.
@example(argv=["--campaign", "smoke", "--serial", "--cache-dir", A_FILE], input_file=b"")
# A malformed --connect address is a usage error.
@example(argv=["--campaign", "smoke", "--connect", "bad"], input_file=b"")
@example(argv=["--campaign", "smoke", "--connect", "127.0.0.1:70000"], input_file=b"")
# No campaign service: exit 3.
@example(argv=["--campaign", "smoke", "--connect", REFUSED, "--retry-max", "1"], input_file=b"")
# Found here: --trace printed its span tree after a usage error's line.
@example(argv=["--compact-cache", "--trace"], input_file=b"")
def test_any_argv_gives_a_result_or_one_line(tmp_path, argv, input_file):
    directory = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(directory, INPUT), "wb") as handle:
        handle.write(input_file)
    with open(os.path.join(directory, A_FILE), "w", encoding="utf-8") as handle:
        handle.write("not a cache\n")
    os.mkdir(os.path.join(directory, A_DIRECTORY))

    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        refused = f"127.0.0.1:{closed.getsockname()[1]}"
        argv = [refused if arg == REFUSED else arg for arg in argv]
        status, message, out, err = _run(argv, directory)

    assert status in EXIT_CODES, (argv, status, err)
    lines = err.splitlines()
    if isinstance(message, str):
        assert message and "\n" not in message, (argv, message)
    elif message is not None:  # argparse's parser.error
        assert status == 2 and lines, (argv, message)
        assert lines[-1].startswith("sradgen: error: "), (argv, err)
        assert sum(line.startswith("sradgen: error: ") for line in lines) == 1, (argv, err)
    elif status == 3:
        causes = [line for line in lines if line.startswith("sradgen: campaign service unavailable")]
        assert len(causes) == 1, (argv, err)
    elif status != 0:
        assert out or err, argv
