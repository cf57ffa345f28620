"""Section 3's synthesis-effort observation.

The paper reports that synthesising the symbolic state machine for N = 256
took over six hours while the shift-register solution took 36 minutes on a
SUN Ultra-5.  Absolute runtimes are irrelevant here; the *asymmetry* is the
result: generic FSM synthesis work (logic-minimisation effort and wall-clock)
blows up with the sequence length while the structured shift register is
constructed in time linear in N.
"""

import time

import pytest

from repro.analysis.reporting import format_figure
from repro.core.mapper import map_sequence
from repro.core.srag import build_srag
from repro.hdl.netlist import Netlist
from repro.synth.fsm.fsm import FiniteStateMachine
from repro.synth.fsm.synthesis import synthesize_fsm
from repro.synth.logic.minimize import _minimize_cached

LENGTHS = [16, 32, 64, 128, 256]


def _shift_register_effort(length):
    # Best of three: a single ~1 ms sample occasionally catches a GC pause
    # or scheduler hiccup and flips the asymmetry assertion below.
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        netlist = Netlist(f"sr_{length}")
        clk = netlist.add_input("clk")
        nxt = netlist.add_input("next")
        rst = netlist.add_input("reset")
        build_srag(netlist, map_sequence(list(range(length))), clk, nxt, rst)
        best = min(best, time.perf_counter() - start)
    return best


def _fsm_effort(length):
    # Cold synthesis: the QM memo can still hold this machine's tables from
    # an earlier test in the same process, and a memo hit is not effort.
    _minimize_cached.cache_clear()
    fsm = FiniteStateMachine.from_select_sequence(list(range(length)))
    result = synthesize_fsm(fsm, encoding="binary")
    return result.synthesis_seconds, result.stats


def _sweep():
    shift_register_seconds = [_shift_register_effort(n) for n in LENGTHS]
    fsm_data = [_fsm_effort(n) for n in LENGTHS]
    return shift_register_seconds, fsm_data


@pytest.fixture(scope="module")
def effort_data():
    return _sweep()


def test_synthesis_effort_asymmetry(benchmark, print_report, effort_data):
    shift_register_seconds, fsm_data = benchmark.pedantic(
        lambda: effort_data, rounds=1, iterations=1
    )
    fsm_seconds = [seconds for seconds, _stats in fsm_data]
    fsm_merges = [stats.merge_operations for _seconds, stats in fsm_data]

    print_report(
        format_figure(
            "Section 3 -- synthesis effort vs sequence length",
            "N",
            LENGTHS,
            {
                "shift register/s": shift_register_seconds,
                "symbolic FSM/s": fsm_seconds,
                "FSM minimiser merges": [float(m) for m in fsm_merges],
            },
            y_label="construction time (s) / minimisation work",
            expectation=(
                "FSM synthesis effort blows up with N (paper: >6 h at N=256 vs "
                "36 min for the shift register); the shift register scales linearly"
            ),
        )
    )

    # The FSM's minimisation work grows super-linearly with N.
    assert fsm_merges[-1] > 8 * fsm_merges[0]
    # At N = 256 the generic FSM synthesis costs far more than constructing
    # the structured shift register.
    assert fsm_seconds[-1] > 5 * shift_register_seconds[-1]
