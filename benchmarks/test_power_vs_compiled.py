"""Reference vs compiled simulation time for the power study hot path.

``estimate_power`` simulates 256 cycles per design point.  The reference
simulator re-evaluates every cell through its truth-table model on each
settle; the compiled engine is levelised and event-driven.  This benchmark
times the oracle's toggle count on the reference simulator
(``oracles.power._reference_toggles``) against the whole of
``estimate_power`` -- toggles and energy -- on a 16x16 SRAG, checks the
toggle counts agree net for net, and asserts the compiled engine's >= 3x
speedup.
"""

import time

from oracles.power import _reference_toggles
from repro.analysis.reporting import format_table
from repro.generators.srag_design import SragDesign
from repro.synth.power import estimate_power
from repro.workloads.registry import build_pattern

CYCLES = 256


def _srag_netlist(size):
    pattern = build_pattern("motion_est_read", size, size)
    return SragDesign(pattern.to_sequence()).netlist


def _time(fn, repeats=7):
    # Best of seven: single reference runs vary by up to 40% on a shared
    # machine, and with best of three the ratio fell as low as 3.3x.
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_power_vs_compiled(benchmark, print_report):
    netlist = _srag_netlist(16)

    ref_s, reference = _time(lambda: _reference_toggles(netlist, CYCLES))
    cmp_s, compiled = _time(lambda: estimate_power(netlist, cycles=CYCLES))
    speedup = ref_s / cmp_s

    # Recorded pytest-benchmark stats measure one bare compiled run, so the
    # tracked number is directly comparable to ref_s above.
    benchmark.pedantic(
        lambda: estimate_power(netlist, cycles=CYCLES), rounds=3, iterations=1
    )

    print_report(
        format_table(
            ["engine", "time (ms)", "energy/access (fJ)", "toggles"],
            [
                ["reference", ref_s * 1e3, "-", sum(reference.values())],
                ["compiled", cmp_s * 1e3, compiled.energy_per_access_fj,
                 compiled.total_toggles],
                ["speedup", speedup, 1.0, 1],
            ],
            title=f"estimate_power, 16x16 SRAG, {CYCLES} cycles",
        )
    )

    # Same measurement (the energies are sums over these counts)...
    assert compiled.toggle_counts == reference
    # ...much faster.  The reference now runs one settle per clock edge
    # (pins bound once), which halved its time: measured ~4.8x on a 2-core
    # box, Python 3.11.  3x is the floor enforced here with headroom for
    # noisy CI runners.
    assert speedup >= 3.0
