"""Bitset vs reference QM cover selection for the synthesis hot path.

PR 5 rewrote :func:`repro.synth.logic.minimize._select_cover` on integer
bitsets (AND/popcount instead of per-minterm ``covers()`` rescans); the
pre-bitset implementation is kept as the test oracle
``oracles.qm._select_cover_reference`` for exactly this comparison.  This benchmark runs both on the same seeded
dense random 9-input table, checks the covers are element-for-element
identical, and enforces a >= 3x speedup floor so the win cannot silently
regress.
"""

import random
import time

from oracles.qm import _select_cover_reference
from repro.analysis.reporting import format_table
from repro.synth.logic.minimize import (
    MinimizationStats,
    _prime_implicants,
    _select_cover,
)
from repro.synth.logic.truth_table import TruthTable

COVER_SEED = 2026
COVER_INPUTS = 9


def cover_selection_table(num_inputs: int) -> TruthTable:
    """A seeded dense random table: half of all minterms are on."""
    rng = random.Random(COVER_SEED)
    on_set = frozenset(
        rng.sample(list(range(1 << num_inputs)), (1 << num_inputs) // 2)
    )
    return TruthTable(num_inputs=num_inputs, on_set=on_set)


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_qm_cover_selection_speedup(benchmark, print_report):
    table = cover_selection_table(COVER_INPUTS)
    primes = _prime_implicants(table, MinimizationStats())

    new_s, cover = _time(
        lambda: _select_cover(primes, table.on_set, MinimizationStats())
    )
    ref_s, reference = _time(
        lambda: _select_cover_reference(primes, table.on_set, MinimizationStats())
    )
    speedup = ref_s / new_s

    # Recorded pytest-benchmark stats measure one bare bitset run, so the
    # tracked number is directly comparable to ref_s above.
    benchmark.pedantic(
        lambda: _select_cover(primes, table.on_set, MinimizationStats()),
        rounds=3,
        iterations=1,
    )

    print_report(
        format_table(
            ["implementation", "time (ms)", "cover size"],
            [
                ["reference", ref_s * 1e3, len(reference)],
                ["bitset", new_s * 1e3, len(cover)],
                ["speedup", speedup, 1],
            ],
            title=(
                f"QM cover selection, dense random "
                f"{table.num_inputs}-input table, {len(primes)} primes"
            ),
        )
    )

    # Same cover, element for element...
    assert cover == reference
    # ...much faster.  Measured ~25x on the development machine at this
    # size; 3x is the floor enforced here with headroom for noisy CI.
    assert speedup >= 3.0
