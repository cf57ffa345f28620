"""Unit tests for the structural component builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.components import (
    build_and_tree,
    build_binary_counter,
    build_decoder,
    build_equality_comparator,
    build_lookahead_incrementer,
    build_or_tree,
    build_ripple_adder,
    build_token_shift_register,
)
from repro.hdl.components.counter import counter_width
from repro.hdl.netlist import Netlist, NetlistError
from repro.hdl.simulator import Simulator


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("modulus", [2, 3, 5, 6, 8, 13, 16])
def test_counter_counts_modulo(modulus):
    netlist = Netlist("cnt")
    clk = netlist.add_input("clk")
    en = netlist.add_input("next")
    counter = build_binary_counter(netlist, modulus, clk, enable=en)
    netlist.add_output_bus("c", counter.count)
    sim = Simulator(netlist)
    sim.poke("next", 1)
    values = sim.run_sequence(counter.count, 2 * modulus + 3, next_port=None)
    expected = [i % modulus for i in range(2 * modulus + 3)]
    assert values == expected


def test_counter_enable_holds():
    netlist = Netlist("cnt")
    clk = netlist.add_input("clk")
    en = netlist.add_input("next")
    counter = build_binary_counter(netlist, 4, clk, enable=en)
    netlist.add_output_bus("c", counter.count)
    sim = Simulator(netlist)
    sim.step(next=1)
    sim.step(next=0)
    sim.step(next=0)
    assert sim.peek_bus(counter.count) == 1


def test_counter_terminal_count_signal():
    netlist = Netlist("cnt")
    clk = netlist.add_input("clk")
    counter = build_binary_counter(netlist, 3, clk)
    netlist.add_output("tc", counter.terminal_count)
    sim = Simulator(netlist)
    seen = []
    for _ in range(6):
        sim.settle()
        seen.append(sim.peek("tc"))
        sim.step()
    assert seen == [0, 0, 1, 0, 0, 1]


def test_counter_width_helper():
    assert counter_width(1) == 1
    assert counter_width(2) == 1
    assert counter_width(3) == 2
    assert counter_width(16) == 4
    assert counter_width(17) == 5
    with pytest.raises(NetlistError):
        counter_width(0)


# ---------------------------------------------------------------------------
# Decoders and comparators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width,outputs", [(1, 2), (2, 4), (3, 8), (4, 16), (5, 32), (6, 40)])
def test_decoder_is_one_hot_and_correct(width, outputs):
    netlist = Netlist("dec")
    address = netlist.add_input_bus("a", width)
    decoder = build_decoder(netlist, address, num_outputs=outputs)
    netlist.add_output_bus("sel", decoder.outputs)
    sim = Simulator(netlist)
    for value in range(outputs):
        sim.poke_bus(address, value)
        sim.settle()
        assert sim.peek_onehot(decoder.outputs) == value


def test_decoder_rejects_bad_output_count():
    netlist = Netlist("dec")
    address = netlist.add_input_bus("a", 2)
    with pytest.raises(NetlistError):
        build_decoder(netlist, address, num_outputs=5)


@pytest.mark.parametrize("width,constant", [(3, 0), (3, 5), (3, 7), (5, 19)])
def test_equality_comparator(width, constant):
    netlist = Netlist("cmp")
    value = netlist.add_input_bus("v", width)
    eq = build_equality_comparator(netlist, value, constant)
    netlist.add_output("eq", eq)
    sim = Simulator(netlist)
    for candidate in range(1 << width):
        sim.poke_bus(value, candidate)
        sim.settle()
        assert sim.peek("eq") == int(candidate == constant)


# ---------------------------------------------------------------------------
# Adders
# ---------------------------------------------------------------------------

@given(a=st.integers(0, 255), b=st.integers(0, 255))
@settings(max_examples=25, deadline=None)
def test_ripple_adder_matches_python(a, b):
    netlist = Netlist("add")
    abus = netlist.add_input_bus("a", 8)
    bbus = netlist.add_input_bus("b", 8)
    total, carry = build_ripple_adder(netlist, abus, bbus)
    netlist.add_output_bus("s", total)
    netlist.add_output("co", carry)
    sim = Simulator(netlist)
    sim.poke_bus(abus, a)
    sim.poke_bus(bbus, b)
    sim.settle()
    result = sim.peek_bus(total) | (sim.peek("co") << 8)
    assert result == a + b


@pytest.mark.parametrize("builder", [build_lookahead_incrementer])
def test_incrementers_match_python(builder):
    netlist = Netlist("inc")
    abus = netlist.add_input_bus("a", 6)
    total, carry = builder(netlist, abus)
    netlist.add_output_bus("s", total)
    netlist.add_output("co", carry)
    sim = Simulator(netlist)
    for a in range(64):
        sim.poke_bus(abus, a)
        sim.settle()
        assert sim.peek_bus(total) == (a + 1) % 64
        assert sim.peek("co") == int(a == 63)


def test_adder_width_mismatch_rejected():
    netlist = Netlist("add")
    a = netlist.add_input_bus("a", 3)
    b = netlist.add_input_bus("b", 4)
    with pytest.raises(NetlistError):
        build_ripple_adder(netlist, a, b)


# ---------------------------------------------------------------------------
# Shift registers, registers, gates
# ---------------------------------------------------------------------------

def test_token_shift_register_rotation():
    netlist = Netlist("sr")
    clk = netlist.add_input("clk")
    en = netlist.add_input("next")
    rst = netlist.add_input("reset")
    loop = netlist.new_net("loop")
    sr = build_token_shift_register(
        netlist, 5, clk, loop, enable=en, reset=rst, token_at=2
    )
    netlist.add_cell("BUF", A=sr.serial_out, Y=loop)
    netlist.add_output_bus("q", sr.outputs)
    sim = Simulator(netlist)
    sim.reset()
    positions = sim.run_sequence(sr.outputs, 11, onehot=True)
    assert positions == [2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2]


def test_token_shift_register_enable_freeze():
    netlist = Netlist("sr")
    clk = netlist.add_input("clk")
    en = netlist.add_input("next")
    rst = netlist.add_input("reset")
    loop = netlist.new_net("loop")
    sr = build_token_shift_register(
        netlist, 3, clk, loop, enable=en, reset=rst, token_at=0
    )
    netlist.add_cell("BUF", A=sr.serial_out, Y=loop)
    netlist.add_output_bus("q", sr.outputs)
    sim = Simulator(netlist)
    sim.reset()
    sim.step(next=0)
    sim.step(next=0)
    sim.settle()
    assert sim.peek_onehot(sr.outputs) == 0


def test_token_shift_register_validation():
    netlist = Netlist("sr")
    clk = netlist.add_input("clk")
    serial = netlist.const(0)
    with pytest.raises(NetlistError):
        build_token_shift_register(netlist, 0, clk, serial)
    with pytest.raises(NetlistError):
        build_token_shift_register(netlist, 4, clk, serial, token_at=4)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 16])
def test_and_or_trees(count):
    netlist = Netlist("tree")
    bits = netlist.add_input_bus("b", count)
    and_out = build_and_tree(netlist, bits)
    or_out = build_or_tree(netlist, bits)
    netlist.add_output("a", and_out)
    netlist.add_output("o", or_out)
    sim = Simulator(netlist)
    for value in (0, 1, (1 << count) - 1, 1 << (count - 1)):
        sim.poke_bus(bits, value & ((1 << count) - 1))
        sim.settle()
        bits_set = [(value >> i) & 1 for i in range(count)]
        assert sim.peek("a") == int(all(bits_set))
        assert sim.peek("o") == int(any(bits_set))
