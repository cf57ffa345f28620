"""Tests for truth tables, two-level minimisation and SOP synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.synth.fsm.fsm import FiniteStateMachine
from repro.synth.fsm.synthesis import next_state_tables
from oracles.qm import _minimize_reference, _select_cover_reference
from repro.synth.logic.minimize import (
    Implicant,
    MinimizationStats,
    _cube_inside,
    _greedy_merge,
    _minimize_cached,
    _prime_implicants,
    _select_cover,
    minimize,
)
from repro.synth.logic.synthesize import sop_to_netlist
from repro.synth.logic.truth_table import TruthTable


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(num_inputs=2, on_set=frozenset({4}))
    with pytest.raises(ValueError):
        TruthTable(num_inputs=2, on_set=frozenset({1}), dc_set=frozenset({1}))


def test_truth_table_from_function():
    table = TruthTable.from_function(3, lambda m: int(bin(m).count("1") == 2))
    assert table.on_set == frozenset({3, 5, 6})
    assert table.off_set == frozenset({0, 1, 2, 4, 7})


def test_truth_table_complement_and_constant():
    table = TruthTable.from_minterms(2, on_set=[0, 1, 2, 3])
    assert table.is_constant()
    comp = table.complement()
    assert comp.on_set == frozenset()


def test_truth_table_with_dont_cares():
    table = TruthTable.from_function(2, lambda m: None if m == 3 else int(m == 1))
    assert table.dc_set == frozenset({3})
    assert table.evaluate(1) == 1
    assert table.evaluate(3) == 0


# ---------------------------------------------------------------------------
# Implicants
# ---------------------------------------------------------------------------

def test_implicant_string_round_trip():
    cube = Implicant.from_string("1-0")
    assert cube.to_string() == "1-0"
    assert cube.covers(0b001)
    assert cube.covers(0b011)
    assert not cube.covers(0b101)
    assert cube.literal_count == 2
    assert cube.literals() == [(0, True), (2, False)]


def test_implicant_bad_string():
    with pytest.raises(ValueError):
        Implicant.from_string("10x")


# ---------------------------------------------------------------------------
# Minimisation
# ---------------------------------------------------------------------------

def _cover_evaluates(cover, minterm):
    return int(any(cube.covers(minterm) for cube in cover))


def test_minimize_classic_example():
    # f(a,b,c) = sum m(1,3,5,7) = c (variable 0).
    table = TruthTable.from_minterms(3, on_set=[1, 3, 5, 7])
    cover, stats = minimize(table)
    assert len(cover) == 1
    assert cover[0].to_string() == "1--"
    assert stats.exact


def test_minimize_xor_needs_two_terms():
    table = TruthTable.from_minterms(2, on_set=[1, 2])
    cover, _stats = minimize(table)
    assert len(cover) == 2


def test_minimize_uses_dont_cares():
    # With don't-cares on 2 and 3, f = {1} union dc{3} can merge into "1-".
    table = TruthTable.from_minterms(2, on_set=[1], dc_set=[3])
    cover, _stats = minimize(table)
    assert len(cover) == 1
    assert cover[0].literal_count == 1


def test_minimize_empty_and_constant():
    empty, stats = minimize(TruthTable.from_minterms(3, on_set=[]))
    assert empty == []
    assert stats.cover_size == 0
    full, _ = minimize(TruthTable.from_minterms(2, on_set=[0, 1, 2, 3]))
    assert len(full) == 1
    assert full[0].care_mask == 0


@given(
    num_inputs=st.integers(2, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_minimize_cover_is_exact_property(num_inputs, data):
    """The cover must match the on-set exactly outside the don't-care set."""
    universe = list(range(1 << num_inputs))
    on_set = data.draw(st.sets(st.sampled_from(universe)))
    remaining = [m for m in universe if m not in on_set]
    dc_set = data.draw(st.sets(st.sampled_from(remaining))) if remaining else set()
    table = TruthTable.from_minterms(num_inputs, on_set, dc_set)
    cover, _stats = minimize(table)
    for minterm in universe:
        if minterm in dc_set:
            continue
        assert _cover_evaluates(cover, minterm) == int(minterm in on_set)


def test_heuristic_fallback_is_still_correct():
    table = TruthTable.from_minterms(6, on_set=list(range(0, 64, 2)))
    cover, stats = minimize(table, max_exact_inputs=4)
    assert not stats.exact
    for minterm in range(64):
        assert _cover_evaluates(cover, minterm) == int(minterm % 2 == 0)


def test_minimize_returns_fresh_objects_despite_memoisation():
    table = TruthTable.from_minterms(3, on_set=[1, 3, 5, 7])
    cover_a, stats_a = minimize(table)
    cover_b, stats_b = minimize(table)
    assert cover_a == cover_b and stats_a == stats_b
    # Mutating one caller's results must not leak into the next caller's.
    cover_a.clear()
    stats_a.cover_size = 99
    cover_c, stats_c = minimize(table)
    assert cover_c == cover_b
    assert stats_c == stats_b


# ---------------------------------------------------------------------------
# Bitset engine vs the pre-bitset reference implementation
# ---------------------------------------------------------------------------

@given(num_inputs=st.integers(2, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_bitset_cover_matches_reference_property(num_inputs, data):
    """Bitset covers are element-for-element the legacy covers."""
    universe = list(range(1 << num_inputs))
    on_set = data.draw(st.sets(st.sampled_from(universe)))
    rest = [m for m in universe if m not in on_set]
    dc_set = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    table = TruthTable.from_minterms(num_inputs, on_set, dc_set)
    cover, stats = minimize(table)
    ref_cover, ref_stats = _minimize_reference(table)
    assert cover == ref_cover
    assert stats == ref_stats


def test_cover_does_not_depend_on_on_set_build_order():
    """Equal truth tables get one cover, however their sets were built.

    Built ascending and descending, these equal frozensets iterate in
    different orders.  The memoised cover of whichever table is minimised
    first is served for both, so the cover must not follow that order.
    """
    on_set, dc_set = [7, 8, 13, 15], [0, 10]
    ascending = TruthTable.from_minterms(4, on_set, dc_set)
    descending = TruthTable.from_minterms(4, on_set[::-1], dc_set[::-1])
    assert ascending == descending
    _minimize_cached.cache_clear()
    cover_up, _ = minimize(ascending)
    _minimize_cached.cache_clear()
    cover_down, _ = minimize(descending)
    assert cover_up == cover_down
    assert cover_up == _minimize_reference(ascending)[0]
    assert cover_down == _minimize_reference(descending)[0]


def test_memo_keeps_a_campaign_sized_working_set():
    """A grid's distinct tables stay memoised until it asks for them again.

    ``cross_workload`` minimises 840 tables, 429 of them distinct; a memo
    bounded below that evicts tables the same campaign is about to reuse.
    """
    tables = [TruthTable.from_minterms(5, [m for m in range(32) if (i >> (m % 10)) & 1])
              for i in range(1, 501)]
    assert len(set(tables)) == 500
    _minimize_cached.cache_clear()
    for table in tables:
        minimize(table)
    hits = _minimize_cached.cache_info().hits
    minimize(tables[0])
    assert _minimize_cached.cache_info().hits == hits + 1


def _fsm_tables(length, encoding="binary"):
    """The next-state truth tables FSM synthesis hands to the minimiser."""
    fsm = FiniteStateMachine.from_select_sequence(list(range(length)))
    return next_state_tables(fsm, encoding)


def _essential_primes(primes, on_set):
    """Primes that are the sole cover of some on-set minterm."""
    essentials = set()
    for m in on_set:
        covering = [p for p in primes if p.covers(m)]
        if len(covering) == 1:
            essentials.add(covering[0])
    return essentials


@pytest.mark.parametrize("length", [48, 64, 100])
def test_fsm_workload_tables_essential_set_unchanged(length):
    """Regression for the bitset rewrite on the FSM synthesis workload.

    The cover must be element-for-element the reference cover, and its head
    must be exactly the essential-prime set (essentials are selected first,
    in minterm order, before greedy covering starts).
    """
    for table in _fsm_tables(length):
        if not table.on_set:
            continue
        stats = MinimizationStats()
        primes = _prime_implicants(table, stats)
        cover = _select_cover(primes, table.on_set, stats)
        reference = _select_cover_reference(primes, table.on_set, stats)
        assert cover == reference
        essentials = _essential_primes(primes, table.on_set)
        assert set(cover[:len(essentials)]) == essentials


# ---------------------------------------------------------------------------
# Heuristic fallback internals
# ---------------------------------------------------------------------------

class _CountingSet:
    """Set wrapper counting membership tests (detects bound rejection)."""

    def __init__(self, members):
        self.members = set(members)
        self.lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return item in self.members


def test_cube_inside_enumerates_small_cubes():
    # Cube "--00" (free bits 2 and 3 of a 4-input function).
    allowed = _CountingSet({0b0000, 0b0100, 0b1000, 0b1100})
    assert _cube_inside(0, 0b0011, 4, allowed)
    assert allowed.lookups == 4  # every cube minterm was checked
    # One missing corner breaks containment.
    assert not _cube_inside(0, 0b0011, 4, _CountingSet({0, 4, 8}))


def test_cube_inside_rejects_more_than_20_free_bits_without_enumerating():
    num_inputs = 22
    everything = _CountingSet(set())
    # 21 free bits: rejected outright -- not a single membership test.
    assert not _cube_inside(0, 1, num_inputs, everything)
    assert everything.lookups == 0
    # Exactly 20 free bits is inside the bound: enumeration starts (and
    # fails fast on the first missing minterm).
    two_care = (1 << 21) | 1
    probe = _CountingSet(set())
    assert not _cube_inside(0, two_care, num_inputs, probe)
    assert probe.lookups == 1


def test_greedy_merge_fallback_covers_exactly():
    # Wide function: f = 1 iff the low two bits are 01, on 24 inputs but
    # with a narrow on-set so the fallback stays cheap.
    n = 24
    on_set = frozenset((k << 2) | 1 for k in range(16))
    table = TruthTable.from_minterms(n, on_set)
    stats = MinimizationStats()
    cover = _greedy_merge(table, stats)
    assert stats.prime_implicants == len(cover)
    assert stats.merge_operations > 0
    for minterm in on_set:
        assert any(cube.covers(minterm) for cube in cover)
    # Spot-check off-set points near the cubes.
    for minterm in [0, 2, 3, (5 << 2), (7 << 2) | 3, 1 << 23]:
        assert minterm not in on_set
        assert not any(cube.covers(minterm) for cube in cover)


def test_minimize_wide_function_uses_fallback_and_marks_inexact():
    n = 24
    table = TruthTable.from_minterms(n, on_set=[(k << 2) | 1 for k in range(8)])
    cover, stats = minimize(table)
    assert not stats.exact
    assert stats.cover_size == len(cover)
    for k in range(8):
        assert any(cube.covers((k << 2) | 1) for cube in cover)


def test_stats_addition():
    _, a = minimize(TruthTable.from_minterms(3, on_set=[1, 3]))
    _, b = minimize(TruthTable.from_minterms(3, on_set=[0]))
    combined = a + b
    assert combined.minterms == a.minterms + b.minterms
    assert combined.exact


# ---------------------------------------------------------------------------
# SOP synthesis
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_sop_netlist_matches_truth_table(data):
    num_inputs = data.draw(st.integers(2, 4))
    on_set = data.draw(st.sets(st.sampled_from(list(range(1 << num_inputs)))))
    table = TruthTable.from_minterms(num_inputs, on_set)
    cover, _ = minimize(table)

    netlist = Netlist("sop")
    inputs = netlist.add_input_bus("x", num_inputs)
    out = sop_to_netlist(netlist, cover, list(inputs))
    netlist.add_output("f", out)
    sim = Simulator(netlist)
    for minterm in range(1 << num_inputs):
        sim.poke_bus(inputs, minterm)
        sim.settle()
        assert sim.peek("f") == int(minterm in on_set)


def test_sop_constant_outputs():
    netlist = Netlist("sop")
    inputs = netlist.add_input_bus("x", 2)
    zero = sop_to_netlist(netlist, [], list(inputs))
    one = sop_to_netlist(
        netlist, [Implicant(values=0, care_mask=0, num_inputs=2)], list(inputs)
    )
    netlist.add_output("zero", zero)
    netlist.add_output("one", one)
    sim = Simulator(netlist)
    sim.settle()
    assert sim.peek("zero") == 0
    assert sim.peek("one") == 1


def test_sop_inverter_cache_is_shared():
    table = TruthTable.from_minterms(3, on_set=[0])
    cover, _ = minimize(table)
    netlist = Netlist("sop")
    inputs = netlist.add_input_bus("x", 3)
    cache = {}
    sop_to_netlist(netlist, cover, list(inputs), inverter_cache=cache)
    first_inv_count = sum(1 for c in netlist.cells.values() if c.cell_type == "INV")
    sop_to_netlist(netlist, cover, list(inputs), prefix="g2", inverter_cache=cache)
    second_inv_count = sum(1 for c in netlist.cells.values() if c.cell_type == "INV")
    assert second_inv_count == first_inv_count
