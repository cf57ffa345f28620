"""Pre-bitset Quine-McCluskey, kept verbatim as the test oracle.

:func:`repro.synth.logic.minimize.minimize` generates primes and selects
covers on integer bitsets.  The functions here are the straightforward
formulations those fast paths replaced; the regression and property tests
(and ``benchmarks/test_qm_cover_speedup.py``) require the fast paths to
return the identical primes, merge-operation counts and covers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.synth.logic.minimize import Implicant, MinimizationStats, _greedy_merge
from repro.synth.logic.truth_table import TruthTable

__all__ = [
    "_minimize_reference",
    "_prime_implicants_reference",
    "_select_cover_reference",
]


def _prime_implicants_reference(
    table: TruthTable, stats: MinimizationStats
) -> List[Implicant]:
    """Pre-bitset prime generation, kept verbatim as the test oracle.

    Groups cubes by care mask and ones-count and compares every pair of
    adjacent groups; :func:`_prime_implicants` must produce the identical
    prime list and merge-operation count.
    """
    n = table.num_inputs
    full_mask = (1 << n) - 1
    current: Set[Tuple[int, int]] = {
        (m, full_mask) for m in (set(table.on_set) | set(table.dc_set))
    }
    primes: Set[Tuple[int, int]] = set()

    while current:
        merged: Set[Tuple[int, int]] = set()
        used: Set[Tuple[int, int]] = set()
        # Group cubes by care mask so only compatible cubes are compared.
        by_mask: Dict[int, List[Tuple[int, int]]] = {}
        for cube in current:
            by_mask.setdefault(cube[1], []).append(cube)
        for mask, cubes in by_mask.items():
            by_ones: Dict[int, List[int]] = {}
            for values, _ in cubes:
                by_ones.setdefault(bin(values).count("1"), []).append(values)
            for ones, group in by_ones.items():
                partners = by_ones.get(ones + 1, [])
                for a in group:
                    for b in partners:
                        diff = a ^ b
                        if bin(diff).count("1") != 1:
                            continue
                        stats.merge_operations += 1
                        new_mask = mask & ~diff
                        merged.add((a & new_mask, new_mask))
                        used.add((a, mask))
                        used.add((b, mask))
        primes |= current - used
        current = merged
    stats.prime_implicants = len(primes)
    return [
        Implicant(values=v, care_mask=m, num_inputs=n) for v, m in sorted(primes)
    ]


def _select_cover_reference(
    primes: Sequence[Implicant],
    on_set: FrozenSet[int],
    stats: MinimizationStats,
) -> List[Implicant]:
    """Pre-bitset cover selection, kept as the test oracle.

    The bitset :func:`_select_cover` must return an element-for-element
    identical cover; the regression and property tests (and the speedup
    floor benchmark) compare against this implementation.
    """
    remaining = set(on_set)
    coverage: Dict[int, List[Implicant]] = {m: [] for m in sorted(remaining)}
    for prime in primes:
        for m in remaining:
            if prime.covers(m):
                coverage[m].append(prime)

    cover: List[Implicant] = []
    # Essential primes: sole cover of some minterm.
    for m, covering in coverage.items():
        if len(covering) == 1 and covering[0] not in cover:
            cover.append(covering[0])
    for prime in cover:
        remaining -= {m for m in remaining if prime.covers(m)}

    # Greedy set cover for what's left.
    candidates = [p for p in primes if p not in cover]
    while remaining:
        best = max(
            candidates,
            key=lambda p: (sum(1 for m in remaining if p.covers(m)), -p.literal_count),
        )
        gained = {m for m in remaining if best.covers(m)}
        if not gained:
            # Should not happen (primes cover the whole on-set), but guard
            # against an infinite loop.
            raise RuntimeError("prime implicants do not cover the on-set")
        cover.append(best)
        candidates.remove(best)
        remaining -= gained
    return cover


def _minimize_reference(
    table: TruthTable,
    *,
    max_exact_inputs: int = 12,
) -> Tuple[List[Implicant], MinimizationStats]:
    """:func:`minimize` with the pre-bitset cover selection (test oracle)."""
    stats = MinimizationStats(minterms=len(table.on_set))
    if not table.on_set:
        return [], stats
    universe = 1 << table.num_inputs
    if len(table.on_set) + len(table.dc_set) == universe:
        stats.cover_size = 1
        return [Implicant(values=0, care_mask=0, num_inputs=table.num_inputs)], stats
    if table.num_inputs <= max_exact_inputs:
        primes = _prime_implicants_reference(table, stats)
        cover = _select_cover_reference(primes, table.on_set, stats)
    else:
        stats.exact = False
        cover = _greedy_merge(table, stats)
    stats.cover_size = len(cover)
    return cover, stats
