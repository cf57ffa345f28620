"""Two-level logic minimisation.

Implements the classic Quine-McCluskey procedure (prime-implicant generation
followed by essential-prime selection and a greedy cover of the remainder)
with a size guard that falls back to merging adjacent minterm pairs for very
wide functions.  This is the work a logic optimiser performs when handed the
symbolic state machine of the paper's Section 3, and it is deliberately kept
"generic": the minimiser does not recognise counters or decoders as special
structures, which is exactly why the FSM baseline scales poorly compared to
the structured shift-register solution.

The module also records effort statistics (minterms, implicant-merge
operations, primes examined) so the reproduction can report a synthesis-effort
comparison mirroring the paper's observation that FSM synthesis for N=256
took over six hours while the shift-register solution took 36 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.obs import metrics, span
from repro.synth.logic.truth_table import TruthTable

__all__ = ["Implicant", "MinimizationStats", "minimize"]

try:  # Python >= 3.10
    _popcount: Callable[[int], int] = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised only on Python 3.9
    def _popcount(x: int) -> int:
        return bin(x).count("1")


@dataclass(frozen=True)
class Implicant:
    """A product term (cube) over ``num_inputs`` variables.

    ``care_mask`` has bit ``i`` set when variable ``i`` appears in the term;
    ``values`` holds the required polarity of those variables (bits outside
    the care mask are zero).  An implicant with an empty care mask is the
    constant-1 term.
    """

    values: int
    care_mask: int
    num_inputs: int

    def covers(self, minterm: int) -> bool:
        """True when this cube contains ``minterm``."""
        return (minterm & self.care_mask) == self.values

    @property
    def literal_count(self) -> int:
        """Number of literals in the product term."""
        return _popcount(self.care_mask)

    def literals(self) -> List[Tuple[int, bool]]:
        """Return ``(variable index, is_positive)`` pairs for each literal."""
        result = []
        for i in range(self.num_inputs):
            if (self.care_mask >> i) & 1:
                result.append((i, bool((self.values >> i) & 1)))
        return result

    def to_string(self) -> str:
        """Render as a cube string, LSB variable first (e.g. ``"1-0"``)."""
        chars = []
        for i in range(self.num_inputs):
            if not (self.care_mask >> i) & 1:
                chars.append("-")
            else:
                chars.append("1" if (self.values >> i) & 1 else "0")
        return "".join(chars)

    @classmethod
    def from_string(cls, cube: str) -> "Implicant":
        """Parse a cube string produced by :meth:`to_string`."""
        values = 0
        mask = 0
        for i, ch in enumerate(cube):
            if ch == "1":
                values |= 1 << i
                mask |= 1 << i
            elif ch == "0":
                mask |= 1 << i
            elif ch != "-":
                raise ValueError(f"invalid cube character {ch!r} in {cube!r}")
        return cls(values=values, care_mask=mask, num_inputs=len(cube))


@dataclass
class MinimizationStats:
    """Effort counters recorded while minimising one function."""

    minterms: int = 0
    merge_operations: int = 0
    prime_implicants: int = 0
    cover_size: int = 0
    exact: bool = True

    def __add__(self, other: "MinimizationStats") -> "MinimizationStats":
        return MinimizationStats(
            minterms=self.minterms + other.minterms,
            merge_operations=self.merge_operations + other.merge_operations,
            prime_implicants=self.prime_implicants + other.prime_implicants,
            cover_size=self.cover_size + other.cover_size,
            exact=self.exact and other.exact,
        )


def minimize(
    table: TruthTable,
    *,
    max_exact_inputs: int = 12,
) -> Tuple[List[Implicant], MinimizationStats]:
    """Return a sum-of-products cover of ``table`` and the effort statistics.

    Functions of up to ``max_exact_inputs`` variables are minimised with the
    exact Quine-McCluskey procedure; wider functions fall back to a greedy
    pairwise-merge heuristic (still correct, possibly sub-optimal), which is
    marked by ``stats.exact = False``.

    Results are memoised on the (hashable, frozen) truth table: identical
    functions recur constantly -- the same FSM evaluated at several opt
    levels or encodings, symmetric output columns within one machine -- and
    a repeat costs a dict lookup instead of a fresh minimisation.  Each call
    still returns fresh ``cover``/``stats`` objects carrying exactly the
    values a cold run would produce, so effort accounting is unchanged.
    The memo holds 4096 tables: a ``cross_workload`` grid minimises 840
    tables of which 429 are distinct, so a smaller bound evicts tables the
    same campaign is about to minimise again.

    Every call folds its :class:`MinimizationStats` into the process metrics
    registry (``qm.*`` counters) and runs under a ``qm.minimize`` span, so
    minimisation effort is attributable after the fact.
    """
    with span("qm.minimize", detail=f"{table.num_inputs} input(s)") as qm_span:
        cover, stats = _minimize_cached(table, max_exact_inputs)
        qm_span.add("merge_operations", stats.merge_operations)
        qm_span.add("prime_implicants", stats.prime_implicants)
    metrics.incr("qm.calls")
    metrics.incr("qm.minterms", stats.minterms)
    metrics.incr("qm.merge_operations", stats.merge_operations)
    metrics.incr("qm.prime_implicants", stats.prime_implicants)
    metrics.incr("qm.cover_size", stats.cover_size)
    return list(cover), replace(stats)


@lru_cache(maxsize=4096)
def _minimize_cached(
    table: TruthTable, max_exact_inputs: int
) -> Tuple[Tuple[Implicant, ...], MinimizationStats]:
    stats = MinimizationStats(minterms=len(table.on_set))
    if not table.on_set:
        return (), stats
    universe = 1 << table.num_inputs
    if len(table.on_set) + len(table.dc_set) == universe:
        # Constant 1 over the care set.
        stats.cover_size = 1
        return (Implicant(values=0, care_mask=0, num_inputs=table.num_inputs),), stats

    if table.num_inputs <= max_exact_inputs:
        primes = _prime_implicants(table, stats)
        cover = _select_cover(primes, table.on_set, stats)
    else:
        stats.exact = False
        cover = _greedy_merge(table, stats)
    stats.cover_size = len(cover)
    return tuple(cover), stats


# ---------------------------------------------------------------------------
# Quine-McCluskey
# ---------------------------------------------------------------------------

def _prime_implicants(table: TruthTable, stats: MinimizationStats) -> List[Implicant]:
    """Generate all prime implicants of the on-set plus don't-cares.

    Cubes are bucketed by care mask (only cubes with the same mask can
    merge) and each bucket is a plain integer set of cube values.  A cube
    ``a`` merges with exactly the values ``a | bit`` for unset care bits
    ``bit``, so partners are found by O(width) set lookups per cube instead
    of comparing every pair of cubes of adjacent popcounts, and all the set
    bookkeeping hashes small ints rather than tuples.  The resulting prime
    set (and the merge-operation count -- one per mergeable adjacent pair)
    is identical to the classic formulation's.
    """
    n = table.num_inputs
    full_mask = (1 << n) - 1
    current: Dict[int, Set[int]] = {
        full_mask: set(table.on_set) | set(table.dc_set)
    }
    primes: Set[Tuple[int, int]] = set()

    merge_operations = 0
    while current:
        merged: Dict[int, Set[int]] = {}
        for mask, values_set in current.items():
            used: Set[int] = set()
            for a in values_set:
                free = mask & ~a
                while free:
                    bit = free & -free
                    free ^= bit
                    b = a | bit
                    if b not in values_set:
                        continue
                    # The merged cube drops ``bit`` from the care mask; its
                    # value is ``a`` itself (the partner with the bit clear).
                    merge_operations += 1
                    merged.setdefault(mask & ~bit, set()).add(a)
                    used.add(a)
                    used.add(b)
            for values in values_set - used:
                primes.add((values, mask))
        current = merged
    stats.merge_operations += merge_operations
    stats.prime_implicants = len(primes)
    return [
        Implicant(values=v, care_mask=m, num_inputs=n) for v, m in sorted(primes)
    ]


def _coverage_masks(
    primes: Sequence[Implicant],
    minterms: Sequence[int],
    bit_of: Dict[int, int],
) -> List[int]:
    """Per-prime bitset over ``minterms``: bit ``i`` set when the prime covers
    ``minterms[i]``.

    Small cubes are expanded directly (enumerating the subsets of their free
    variables and looking each minterm up), so the cost is proportional to
    the cube size rather than to ``|minterms|``; wide cubes fall back to one
    scan over the minterm list.
    """
    masks: List[int] = []
    n_minterms = len(minterms)
    for prime in primes:
        values, care = prime.values, prime.care_mask
        free_mask = ((1 << prime.num_inputs) - 1) & ~care
        coverage = 0
        if (1 << _popcount(free_mask)) <= n_minterms:
            subset = free_mask
            while True:
                bit = bit_of.get(values | subset)
                if bit is not None:
                    coverage |= 1 << bit
                if subset == 0:
                    break
                subset = (subset - 1) & free_mask
        else:
            for i, m in enumerate(minterms):
                if (m & care) == values:
                    coverage |= 1 << i
        masks.append(coverage)
    return masks


def _select_cover(
    primes: Sequence[Implicant],
    on_set: FrozenSet[int],
    stats: MinimizationStats,
) -> List[Implicant]:
    """Pick essential primes, then greedily cover the remaining minterms.

    Coverage is represented as integer bitsets (one bit per on-set minterm),
    so essential-prime detection is a single pass over the coverage masks and
    each greedy iteration is AND/popcount work instead of per-minterm
    ``covers()`` rescans.  The selected cover is element-for-element
    identical to the pre-bitset implementation's (the test oracle
    ``oracles.qm.select_cover_reference``): minterms are visited in
    the same (ascending) order and the greedy tie-breaking is unchanged.
    Visiting ``sorted(on_set)`` rather than the set's iteration order makes
    the cover a function of the on-set alone: equal frozensets built in
    different orders can iterate differently, and the memoised cover must
    not depend on which of them was minimised first.
    """
    minterms = sorted(on_set)
    bit_of = {m: i for i, m in enumerate(minterms)}
    masks = _coverage_masks(primes, minterms, bit_of)

    # Essential primes: sole cover of some minterm.  ``counts``/``first``
    # reproduce the reference's per-minterm covering lists without building
    # them: only the length and the head of each list were ever used.
    counts = [0] * len(minterms)
    first = [0] * len(minterms)
    for index, coverage in enumerate(masks):
        while coverage:
            low = coverage & -coverage
            coverage ^= low
            bit = low.bit_length() - 1
            if counts[bit] == 0:
                first[bit] = index
            counts[bit] += 1

    cover_indices: List[int] = []
    chosen: Set[int] = set()
    covered = 0
    for bit in range(len(minterms)):
        if counts[bit] == 1 and first[bit] not in chosen:
            chosen.add(first[bit])
            cover_indices.append(first[bit])
            covered |= masks[first[bit]]

    # Greedy set cover for what's left.
    remaining = ((1 << len(minterms)) - 1) & ~covered
    literal_counts = [p.literal_count for p in primes]
    candidates = [i for i in range(len(primes)) if i not in chosen]
    while remaining:
        best = max(
            candidates,
            key=lambda i: (_popcount(masks[i] & remaining), -literal_counts[i]),
        )
        if not masks[best] & remaining:
            # Should not happen (primes cover the whole on-set), but guard
            # against an infinite loop.
            raise RuntimeError("prime implicants do not cover the on-set")
        cover_indices.append(best)
        candidates.remove(best)
        remaining &= ~masks[best]
    return [primes[i] for i in cover_indices]


# ---------------------------------------------------------------------------
# Heuristic fallback for wide functions
# ---------------------------------------------------------------------------

def _greedy_merge(table: TruthTable, stats: MinimizationStats) -> List[Implicant]:
    """Greedy pairwise merging of minterms into wider cubes.

    Repeatedly expands each on-set cube one variable at a time as long as the
    expansion stays inside the on-set plus don't-care set.  Produces a valid
    (if not necessarily minimal) cover in time roughly linear in the number
    of minterms times the number of inputs.
    """
    n = table.num_inputs
    allowed = set(table.on_set) | set(table.dc_set)
    covered: Set[int] = set()
    cover: List[Implicant] = []
    for minterm in sorted(table.on_set):
        if minterm in covered:
            continue
        values, mask = minterm, (1 << n) - 1
        for bit in range(n):
            candidate_mask = mask & ~(1 << bit)
            candidate_values = values & candidate_mask
            if _cube_inside(candidate_values, candidate_mask, n, allowed):
                values, mask = candidate_values, candidate_mask
                stats.merge_operations += 1
        cube = Implicant(values=values, care_mask=mask, num_inputs=n)
        cover.append(cube)
        covered |= {m for m in table.on_set if cube.covers(m)}
    stats.prime_implicants = len(cover)
    return cover


def _cube_inside(values: int, mask: int, num_inputs: int, allowed: Set[int]) -> bool:
    """Check whether every minterm of the cube lies in ``allowed``.

    The free variables of the cube are enumerated; cubes wider than 2^20
    minterms are rejected outright to bound the work.
    """
    free_bits = [i for i in range(num_inputs) if not (mask >> i) & 1]
    if len(free_bits) > 20:
        return False
    for combo in range(1 << len(free_bits)):
        minterm = values
        for j, bit in enumerate(free_bits):
            if (combo >> j) & 1:
                minterm |= 1 << bit
        if minterm not in allowed:
            return False
    return True
