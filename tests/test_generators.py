"""Tests for the baseline address-generator architectures."""

import pytest

from repro.core.mapping_params import MappingError
from repro.engine.jobs import candidate_factories
from repro.flow import FlowSpec
from repro.generators import (
    ArithmeticAddressGenerator,
    CounterBasedAddressGenerator,
    FsmAddressGenerator,
    SfmPointerGenerator,
    SragDesign,
)
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.netlist import Netlist, NetlistError
from repro.hdl.simulator import AddressEncoding, SimulationError
from repro.workloads import dct, fifo, motion_estimation, zoom
from repro.workloads.loopnest import AffineAccessPattern, AffineExpression, Loop
from repro.workloads.registry import available_workloads, build_pattern


# ---------------------------------------------------------------------------
# CntAG
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "pattern_factory",
    [
        lambda: motion_estimation.new_img_read_pattern(8, 8, 2, 2),
        lambda: motion_estimation.new_img_write_pattern(4, 4),
        lambda: dct.column_pass_pattern(4, 4),
        lambda: zoom.zoom_read_pattern(4, 4, 2),
    ],
)
def test_cntag_generates_the_right_addresses(pattern_factory):
    pattern = pattern_factory()
    assert CounterBasedAddressGenerator(pattern).verify()


def test_cntag_adder_and_concatenation_variants_agree():
    pattern = motion_estimation.new_img_read_pattern(8, 8, 2, 2)
    concat = CounterBasedAddressGenerator(pattern, use_concatenation=True)
    adders = CounterBasedAddressGenerator(pattern, use_concatenation=False)
    assert concat.simulate(32) == adders.simulate(32)
    # The adder-based variant carries extra logic.
    assert adders.synthesize().area_cells > concat.synthesize().area_cells


def test_cntag_without_decoders_has_no_select_lines():
    pattern = dct.column_pass_pattern(4, 4)
    design = CounterBasedAddressGenerator(pattern, include_decoders=False)
    assert design.verify()
    assert not any(name.startswith("rs_") for name in design.netlist.outputs)


def test_cntag_decoder_outputs_are_select_lines():
    pattern = fifo.fifo_pattern(4, 4)
    design = CounterBasedAddressGenerator(pattern)
    outputs = design.netlist.outputs
    assert sum(1 for name in outputs if name.startswith("rs_")) == 4
    assert sum(1 for name in outputs if name.startswith("cs_")) == 4


def test_cntag_component_reports_and_paper_delay():
    from repro.analysis.tradeoff import evaluate_cntag

    pattern = motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    design = CounterBasedAddressGenerator(pattern)
    components = design.component_reports()
    assert set(components) == {"counter", "row_decoder", "column_decoder"}
    total = evaluate_cntag(pattern).delay_ns
    assert total == pytest.approx(
        components["counter"].delay_ns
        + max(components["row_decoder"].delay_ns, components["column_decoder"].delay_ns)
    )
    assert total > components["counter"].delay_ns


def test_cntag_rejects_non_unit_stride_and_negative_coefficients():
    bad_stride = AffineAccessPattern(
        name="bad",
        loops=[Loop("i", 0, 8, step=2)],
        row_expr=AffineExpression.build({"i": 1}),
        col_expr=AffineExpression.build({}),
        rows=8,
        cols=1,
    )
    with pytest.raises(NetlistError):
        CounterBasedAddressGenerator(bad_stride)

    negative = AffineAccessPattern(
        name="neg",
        loops=[Loop("i", 0, 4)],
        row_expr=AffineExpression.build({"i": -1}, constant=3),
        col_expr=AffineExpression.build({}),
        rows=4,
        cols=1,
    )
    with pytest.raises(NetlistError):
        CounterBasedAddressGenerator(negative).elaborate()


def test_cntag_affine_constant_offset():
    pattern = AffineAccessPattern(
        name="offset",
        loops=[Loop("i", 0, 4)],
        row_expr=AffineExpression.build({"i": 1}, constant=2),
        col_expr=AffineExpression.build({}, constant=1),
        rows=8,
        cols=4,
    )
    design = CounterBasedAddressGenerator(pattern)
    assert design.simulate(4) == [2 * 4 + 1, 3 * 4 + 1, 4 * 4 + 1, 5 * 4 + 1]


# ---------------------------------------------------------------------------
# Arithmetic generator
# ---------------------------------------------------------------------------

def test_arithmetic_generator_constant_stride():
    design = ArithmeticAddressGenerator(fifo.fifo_sequence(4, 4))
    assert design.distinct_strides == [1]
    assert design.verify()


def test_arithmetic_generator_variable_stride():
    sequence = motion_estimation.read_sequence(4, 4, 2, 2)
    design = ArithmeticAddressGenerator(sequence)
    assert len(design.distinct_strides) > 1
    assert design.verify()


def test_arithmetic_generator_with_decoders():
    design = ArithmeticAddressGenerator(fifo.fifo_sequence(4, 4), include_decoders=True)
    assert any(name.startswith("rs_") for name in design.netlist.outputs)
    assert design.verify()


def test_arithmetic_generator_requires_power_of_two_array():
    sequence = fifo.fifo_sequence(3, 3)
    with pytest.raises(NetlistError):
        ArithmeticAddressGenerator(sequence)


# ---------------------------------------------------------------------------
# FSM generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("output_style", ["select_lines", "two_hot", "binary"])
def test_fsm_generator_output_styles(output_style):
    sequence = motion_estimation.read_sequence(4, 4, 2, 2)
    design = FsmAddressGenerator(sequence, encoding="binary", output_style=output_style)
    assert design.verify()


def test_fsm_generator_invalid_style():
    with pytest.raises(ValueError):
        FsmAddressGenerator(fifo.fifo_sequence(2, 2), output_style="gray_code")


def test_fsm_generator_exposes_synthesis_stats():
    design = FsmAddressGenerator(fifo.incremental_sequence(8))
    result = design.fsm_synthesis
    assert result.state_width == 3
    assert result.stats.minterms > 0


# ---------------------------------------------------------------------------
# SFM generator
# ---------------------------------------------------------------------------

def test_sfm_generator_incremental_only():
    assert SfmPointerGenerator(fifo.incremental_sequence(8)).verify()
    with pytest.raises(NetlistError):
        SfmPointerGenerator(motion_estimation.read_sequence(4, 4, 2, 2))


def test_sfm_generator_has_two_pointer_registers():
    design = SfmPointerGenerator(fifo.incremental_sequence(6))
    flops = design.netlist.sequential_cells()
    assert len(flops) == 12  # head + tail, one flip-flop per cell


# ---------------------------------------------------------------------------
# Common interface behaviour
# ---------------------------------------------------------------------------

def test_designs_share_the_common_interface():
    sequence = fifo.fifo_sequence(4, 4)
    pattern = fifo.fifo_pattern(4, 4)
    designs = [
        SragDesign(sequence),
        CounterBasedAddressGenerator(pattern),
        ArithmeticAddressGenerator(sequence),
        FsmAddressGenerator(sequence, output_style="two_hot"),
        SfmPointerGenerator(fifo.incremental_sequence(16)),
    ]
    for design in designs:
        result = design.synthesize(metadata={"test": True})
        assert result.delay_ns > 0
        assert result.area_cells > 0
        assert result.metadata["style"] == design.style
        assert result.metadata["test"] is True


def test_netlist_cache_and_invalidate():
    design = SragDesign(fifo.fifo_sequence(4, 4))
    first = design.netlist
    assert design.netlist is first
    design.invalidate()
    assert design.netlist is not first


def test_srag_design_maps_its_sequence_once(monkeypatch):
    import repro.core.addm_generator as addm_generator

    calls = []
    real = addm_generator.map_address_sequence

    def counting(sequence):
        calls.append(sequence.name)
        return real(sequence)

    monkeypatch.setattr(addm_generator, "map_address_sequence", counting)
    design = SragDesign(fifo.fifo_sequence(8, 8))
    design.synthesize()
    design.invalidate()
    design.synthesize()
    assert calls == ["fifo_8x8"]


def test_srag_design_exposes_mappings():
    design = SragDesign(motion_estimation.read_sequence(4, 4, 2, 2))
    assert design.generator.row_mapping.div_count == 2
    assert design.generator.col_mapping.div_count == 1


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("workload", available_workloads())
def test_every_candidate_emits_its_workload_sequence(workload, size):
    """Gate-level simulation of every applicable (style, variant) verifies."""
    pattern = build_pattern(workload, size, size)
    for style, variant, factory in candidate_factories(pattern):
        try:
            design = factory()
        except (MappingError, NetlistError, ValueError):
            continue
        assert design.verify(), f"{style}[{variant}] on {workload} {size}x{size}"


# ---------------------------------------------------------------------------
# Netlist ownership: synthesis rewrites the design's netlist in place
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(factory, id=f"{style}-{variant}")
        for style, variant, factory in candidate_factories(build_pattern("fifo", 8, 8))
    ],
)
def test_synthesizing_one_design_twice_gives_equal_results(factory, opt_level):
    design = factory()
    spec = FlowSpec(opt_level=opt_level)
    first = design.synthesize(spec)
    second = design.synthesize(spec)
    assert second.netlist is not first.netlist
    assert design.netlist is not second.netlist
    assert (second.area, second.timing, second.buffers_inserted) == (
        first.area, first.timing, first.buffers_inserted,
    )
    assert second.netlist.stats() == first.netlist.stats()


# ---------------------------------------------------------------------------
# Sampling-loop error paths
# ---------------------------------------------------------------------------

class _ConstantLines(AddressGeneratorDesign):
    """Select lines tied to constants: ``levels[prefix]`` per bus."""

    style = "Const"

    def __init__(self, encoding, levels):
        super().__init__(fifo.fifo_sequence(2, 2))
        self.address_encoding = encoding
        self.levels = levels

    def elaborate(self):
        netlist = Netlist("const_lines")
        for port in ("clk", "next", "reset"):
            netlist.add_input(port)
        for prefix, width in self.address_encoding.buses:
            level = netlist.const(self.levels[prefix])
            netlist.add_output_bus(prefix, [level] * width)
        return netlist


_ONE_HOT = AddressEncoding((("sel", 4),), onehot=True)
_TWO_HOT = AddressEncoding.two_hot(2, 2)


@pytest.mark.parametrize(
    "encoding,levels",
    [
        (_ONE_HOT, {"sel": 0}),
        (_TWO_HOT, {"rs": 0, "cs": 0}),
        # One row line, always high: the row reads fine, the column never does.
        (AddressEncoding.two_hot(1, 2), {"rs": 1, "cs": 0}),
    ],
)
def test_sampling_raises_when_no_select_line_asserts(encoding, levels):
    with pytest.raises(RuntimeError, match="_\\* line asserted at cycle 0"):
        _ConstantLines(encoding, levels).verify()


@pytest.mark.parametrize(
    "encoding,levels", [(_ONE_HOT, {"sel": 1}), (_TWO_HOT, {"rs": 1, "cs": 1})]
)
def test_sampling_raises_when_several_select_lines_assert(encoding, levels):
    with pytest.raises(SimulationError, match="multiple select lines"):
        _ConstantLines(encoding, levels).verify()
