"""Tests for the SAT cover-correctness oracle (:mod:`oracles.cover`)."""

import pytest

from oracles.cover import verify_cover
from repro.synth.logic.minimize import Implicant, minimize
from repro.synth.logic.truth_table import TruthTable


def _tables():
    """A spread of truth tables, all widths exhaustively checkable."""
    yield TruthTable(num_inputs=0, on_set=frozenset())
    yield TruthTable(num_inputs=0, on_set=frozenset({0}))
    yield TruthTable.from_function(2, lambda m: m in (1, 2))  # XOR
    yield TruthTable.from_function(3, lambda m: int(bin(m).count("1") >= 2))
    yield TruthTable.from_function(4, lambda m: int(m % 3 == 0))
    yield TruthTable(
        num_inputs=3,
        on_set=frozenset({1, 3, 5}),
        dc_set=frozenset({6, 7}),
    )
    yield TruthTable(
        num_inputs=4,
        on_set=frozenset({0, 2, 8, 10, 15}),
        dc_set=frozenset({4, 6, 12}),
    )


# ---------------------------------------------------------------------------
# Every exact-QM cover is accepted
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", list(_tables()), ids=lambda t: repr(t)[:40])
def test_qm_covers_are_proven_exact(table):
    cover, stats = minimize(table)
    verdict = verify_cover(table, cover)
    assert verdict.exact, verdict.describe()
    assert verdict.missed_minterm is None
    assert verdict.overlap_minterm is None
    assert "exact" in verdict.describe()


def test_heuristic_covers_are_also_exact():
    # The greedy fallback (max_exact_inputs forced below width) must still
    # produce *correct* covers -- this oracle is exactly the check ROADMAP
    # wanted before trusting it.
    table = TruthTable.from_function(4, lambda m: int(m % 5 == 1))
    cover, stats = minimize(table, max_exact_inputs=2)
    assert not stats.exact
    assert verify_cover(table, cover).exact


# ---------------------------------------------------------------------------
# Mutated covers are rejected with real witnesses
# ---------------------------------------------------------------------------

def test_dropped_implicant_is_caught_as_missed_minterm():
    table = TruthTable.from_function(3, lambda m: int(bin(m).count("1") >= 2))
    cover, _ = minimize(table)
    assert len(cover) > 1
    verdict = verify_cover(table, cover[1:])
    assert not verdict.exact
    missed = verdict.missed_minterm
    assert missed in table.on_set
    assert not any(imp.covers(missed) for imp in cover[1:])
    assert "is not covered" in verdict.describe()


def test_widened_implicant_is_caught_as_overlap_minterm():
    table = TruthTable.from_function(3, lambda m: m in (3, 7))  # a AND b
    cover, _ = minimize(table)
    # Widen one cube by dropping a cared literal: it now spills into off-set.
    victim = cover[0]
    drop = victim.literals()[0][0]
    widened = Implicant(
        values=victim.values & ~(1 << drop),
        care_mask=victim.care_mask & ~(1 << drop),
        num_inputs=victim.num_inputs,
    )
    verdict = verify_cover(table, [widened] + list(cover[1:]))
    assert not verdict.exact
    overlap = verdict.overlap_minterm
    assert overlap in table.off_set
    assert widened.covers(overlap)
    assert "wrongly covered" in verdict.describe()


def test_empty_cover_of_nonempty_onset_is_rejected():
    table = TruthTable.from_function(2, lambda m: int(m == 3))
    verdict = verify_cover(table, [])
    assert not verdict.exact
    assert verdict.missed_minterm == 3
    assert verdict.overlap_minterm is None


def test_tautological_cube_over_nonfull_onset_is_rejected():
    table = TruthTable.from_function(2, lambda m: int(m == 3))
    everything = Implicant(values=0, care_mask=0, num_inputs=2)
    verdict = verify_cover(table, [everything])
    assert not verdict.exact
    assert verdict.overlap_minterm in table.off_set


def test_dont_cares_may_fall_on_either_side():
    table = TruthTable(
        num_inputs=2, on_set=frozenset({3}), dc_set=frozenset({1})
    )
    # Cover = one cube over minterms {1, 3}: includes dc minterm 1. Legal.
    cube_b = Implicant.from_string("1-")
    assert verify_cover(table, [cube_b]).exact
    # Cover = {ab}: excludes dc minterm 1. Also legal.
    cube_ab = Implicant.from_string("11")
    assert verify_cover(table, [cube_ab]).exact


def test_width_mismatch_is_rejected():
    table = TruthTable.from_function(2, lambda m: int(m == 3))
    with pytest.raises(ValueError):
        verify_cover(table, [Implicant(values=0, care_mask=0, num_inputs=3)])


def test_brute_force_agreement_over_random_mutations():
    """The oracle agrees with exhaustive evaluation for every mutation."""
    table = TruthTable.from_function(3, lambda m: int(m % 3 == 1))
    cover, _ = minimize(table)
    mutations = [list(cover)]
    mutations.extend(
        list(cover[:i]) + list(cover[i + 1:]) for i in range(len(cover))
    )
    for imp in cover:
        for bit in range(3):
            if not (imp.care_mask >> bit) & 1:
                continue
            mutations.append(
                [Implicant(
                    values=imp.values ^ (1 << bit),
                    care_mask=imp.care_mask,
                    num_inputs=3,
                )] + [other for other in cover if other is not imp]
            )
    for mutant in mutations:
        verdict = verify_cover(table, mutant)
        expected_exact = all(
            (any(imp.covers(m) for imp in mutant))
            == (m in table.on_set or m in table.dc_set)
            or m in table.dc_set
            for m in range(8)
        )
        assert verdict.exact == expected_exact, (mutant, verdict.describe())
