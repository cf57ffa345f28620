"""Tests for the symbolic FSM model, encodings and synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.netlist import Bus
from repro.hdl.simulator import Simulator
from repro.synth.fsm import (
    ENCODINGS,
    FiniteStateMachine,
    encoding_by_name,
    synthesize_fsm,
)


# ---------------------------------------------------------------------------
# FSM model
# ---------------------------------------------------------------------------

def test_fsm_from_select_sequence_cycles():
    fsm = FiniteStateMachine.from_select_sequence([2, 0, 1])
    assert fsm.num_states == 3
    assert [vec.index(1) for vec in fsm.simulate(7)] == [2, 0, 1, 2, 0, 1, 2]


def test_fsm_from_binary_sequence():
    fsm = FiniteStateMachine.from_binary_sequence([0, 3, 1], address_width=2)
    observed = fsm.simulate(3)
    decoded = [vec[0] + 2 * vec[1] for vec in observed]
    assert decoded == [0, 3, 1]


def test_fsm_from_two_hot_sequence():
    fsm = FiniteStateMachine.from_two_hot_sequence([0, 1], [1, 0], 2, 2)
    assert fsm.output_width == 4
    first = fsm.outputs[0]
    assert first == (1, 0, 0, 1)


def test_fsm_validation_errors():
    with pytest.raises(ValueError):
        FiniteStateMachine(name="bad", num_states=2, next_state=[0], outputs=[(0,), (1,)])
    with pytest.raises(ValueError):
        FiniteStateMachine(
            name="bad", num_states=2, next_state=[0, 5], outputs=[(0,), (1,)]
        )
    with pytest.raises(ValueError):
        FiniteStateMachine(
            name="bad", num_states=2, next_state=[1, 0], outputs=[(0,), (1, 1)]
        )
    with pytest.raises(ValueError):
        FiniteStateMachine.from_select_sequence([])


def test_fsm_hold_when_not_advancing():
    fsm = FiniteStateMachine.from_select_sequence([0, 1, 2])
    held = fsm.simulate(3, advance=False)
    assert held == [fsm.outputs[0]] * 3


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

def test_binary_and_gray_widths():
    binary = encoding_by_name("binary")
    gray = encoding_by_name("gray")
    assert binary.width(8) == 3
    assert binary.width(9) == 4
    assert gray.width(8) == 3


def test_onehot_and_johnson_codes_are_distinct():
    for name in ("binary", "gray", "onehot"):
        encoding = ENCODINGS[name]
        for num_states in (1, 2, 5, 8, 13):
            codes = encoding.codes(num_states)
            assert len(set(codes)) == num_states, f"{name} collides for {num_states}"


def test_gray_adjacent_codes_differ_by_one_bit():
    gray = encoding_by_name("gray")
    codes = gray.codes(16)
    for a, b in zip(codes, codes[1:]):
        assert bin(a ^ b).count("1") == 1


def test_onehot_codes():
    onehot = encoding_by_name("onehot")
    assert onehot.codes(4) == [1, 2, 4, 8]
    assert onehot.width(4) == 4


def test_code_bits_and_errors():
    binary = encoding_by_name("binary")
    assert binary.code_bits(5, 8) == (1, 0, 1)
    with pytest.raises(ValueError):
        binary.encode(8, 8)
    with pytest.raises(KeyError):
        encoding_by_name("magic")


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _simulate_select_outputs(result, num_lines, cycles):
    sim = Simulator(result.netlist)
    sim.reset()
    sim.poke("next", 1)
    lines = Bus([result.netlist.outputs[f"sel_{k}"] for k in range(num_lines)])
    observed = []
    for _ in range(cycles):
        sim.settle()
        observed.append(sim.peek_onehot(lines))
        sim.step()
    return observed


@pytest.mark.parametrize("encoding", ["binary", "gray", "onehot"])
def test_synthesized_fsm_reproduces_sequence(encoding):
    sequence = [0, 3, 1, 2, 6, 5]
    fsm = FiniteStateMachine.from_select_sequence(sequence, num_lines=8)
    result = synthesize_fsm(fsm, encoding=encoding)
    assert result.state_width >= 1
    observed = _simulate_select_outputs(result, 8, 2 * len(sequence))
    assert observed == sequence + sequence


def test_synthesized_fsm_holds_without_next():
    fsm = FiniteStateMachine.from_select_sequence([0, 1, 2, 3])
    result = synthesize_fsm(fsm, encoding="binary")
    sim = Simulator(result.netlist)
    sim.reset()
    sim.poke("next", 0)
    sim.step(3)
    lines = Bus([result.netlist.outputs[f"sel_{k}"] for k in range(4)])
    sim.settle()
    assert sim.peek_onehot(lines) == 0


def test_fsm_synthesis_records_effort():
    fsm = FiniteStateMachine.from_select_sequence(list(range(16)))
    result = synthesize_fsm(fsm, encoding="binary")
    assert not result.structural
    assert result.stats.minterms > 0
    assert result.synthesis_seconds >= 0


def test_onehot_synthesis_uses_structural_path():
    fsm = FiniteStateMachine.from_select_sequence(list(range(8)))
    result = synthesize_fsm(fsm, encoding="onehot")
    assert result.structural
    assert result.state_width == 8


def test_state_register_above_table_width_is_rejected_not_relabelled(monkeypatch):
    """Binary/gray machines too wide for truth tables raise; they must not
    come back as a one-hot netlist still labelled with the requested encoding."""
    import repro.synth.fsm.synthesis as synthesis
    from repro.engine.runner import SKIPPED, evaluate_point
    from repro.flow import DEFAULT_SPEC
    from repro.workloads.fifo import fifo_pattern

    monkeypatch.setattr(synthesis, "MAX_TABLE_WIDTH", 3)
    fsm = FiniteStateMachine.from_select_sequence(list(range(9)))  # 4 state bits
    for encoding in ("binary", "gray"):
        with pytest.raises(ValueError, match="needs 4 state bits"):
            synthesize_fsm(fsm, encoding=encoding)
    onehot = synthesize_fsm(fsm, encoding="onehot")
    assert onehot.structural and onehot.state_width == 9
    assert len(onehot.netlist.sequential_cells()) == 9
    # A campaign or --explore point records the refusal as skipped.
    pattern = fifo_pattern(3, 3)
    record = evaluate_point(
        lambda: pattern, "FSM", "binary", DEFAULT_SPEC,
        workload=pattern.name, rows=3, cols=3,
    )
    assert record.status == SKIPPED


@given(length=st.integers(2, 10), seed=st.integers(0, 2 ** 16))
@settings(max_examples=12, deadline=None)
def test_fsm_synthesis_matches_model_property(length, seed):
    """Structural synthesis agrees with the behavioural model for random sequences."""
    values = [(seed * (i + 3) + 7 * i * i) % length for i in range(length)]
    fsm = FiniteStateMachine.from_select_sequence(values, num_lines=length)
    result = synthesize_fsm(fsm, encoding="binary")
    observed = _simulate_select_outputs(result, length, length)
    assert observed == values
