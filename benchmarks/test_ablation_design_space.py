"""Ablation and design-space benchmarks beyond the paper's evaluation.

These runs quantify the design choices DESIGN.md calls out:

* **Two-hot vs one-hot** -- what the SRAG's two-hot encoding saves compared
  with a flat one-hot state machine over the whole array (the comparison the
  paper makes qualitatively against the SFM's one-hot encoding).
* **CntAG address computation** -- the cost of explicit adders versus
  bit-range concatenation in the counter-based baseline.
* **State encodings** -- the symbolic FSM under binary / gray / one-hot
  encodings for a block-access sequence.
* **Data organisation** -- the effect of a blocked layout on SRAG cost (the
  future-work knob of the paper's Section 5).
"""

import pytest

from repro.analysis.explorer import explore
from repro.analysis.reporting import format_table
from repro.generators.counter_based import CounterBasedAddressGenerator
from repro.generators.fsm_based import FsmAddressGenerator
from repro.generators.srag_design import SragDesign
from repro.memory.layout import BlockedLayout
from repro.workloads import motion_estimation

SIZE = 16


@pytest.fixture(scope="module")
def read_pattern():
    return motion_estimation.new_img_read_pattern(SIZE, SIZE, 2, 2)


def test_two_hot_versus_one_hot_encoding(benchmark, print_report, read_pattern):
    sequence = read_pattern.to_sequence()

    def run():
        two_hot = SragDesign(sequence).synthesize()
        one_hot = FsmAddressGenerator(
            sequence, encoding="onehot", output_style="select_lines"
        ).synthesize()
        return two_hot, one_hot

    two_hot, one_hot = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        format_table(
            ["Encoding", "delay/ns", "area/cells", "flip-flops"],
            [
                ["two-hot SRAG", two_hot.delay_ns, two_hot.area_cells,
                 two_hot.area.flip_flop_count],
                ["one-hot FSM", one_hot.delay_ns, one_hot.area_cells,
                 one_hot.area.flip_flop_count],
            ],
            title="Ablation -- two-hot SRAG vs flat one-hot state machine (16x16 read)",
        )
    )
    # Two-hot needs rows+cols flip-flops; one-hot needs one per *access*.
    assert two_hot.area.flip_flop_count < one_hot.area.flip_flop_count
    assert two_hot.area_cells < one_hot.area_cells


def test_cntag_concatenation_ablation(benchmark, print_report, read_pattern):
    def run():
        concat = CounterBasedAddressGenerator(read_pattern, use_concatenation=True)
        adders = CounterBasedAddressGenerator(read_pattern, use_concatenation=False)
        return concat.synthesize(), adders.synthesize()

    concat, adders = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        format_table(
            ["CntAG address computation", "delay/ns", "area/cells"],
            [
                ["bit-range concatenation", concat.delay_ns, concat.area_cells],
                ["explicit adders", adders.delay_ns, adders.area_cells],
            ],
            title="Ablation -- CntAG address-computation style (16x16 read)",
        )
    )
    assert concat.area_cells < adders.area_cells


def test_fsm_encoding_sweep(benchmark, print_report, read_pattern):
    sequence = motion_estimation.read_sequence(8, 8, 2, 2)

    def run():
        results = {}
        for encoding in ("binary", "gray", "onehot"):
            results[encoding] = FsmAddressGenerator(
                sequence, encoding=encoding, output_style="two_hot"
            ).synthesize()
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [encoding, result.delay_ns, result.area_cells, result.area.flip_flop_count]
        for encoding, result in results.items()
    ]
    print_report(
        format_table(
            ["FSM encoding", "delay/ns", "area/cells", "flip-flops"],
            rows,
            title="Ablation -- symbolic FSM state encodings (8x8 read sequence)",
        )
    )
    assert results["onehot"].area.flip_flop_count > results["binary"].area.flip_flop_count


def test_blocked_data_organisation(benchmark, print_report, read_pattern):
    """A 2x2-blocked layout turns block access into an incremental sequence,
    shrinking the SRAG's control logic -- the data-organisation opportunity
    the paper defers to future work."""
    sequence = read_pattern.to_sequence()

    def run():
        row_major = SragDesign(sequence).synthesize()
        blocked = SragDesign(sequence.with_layout(BlockedLayout(2, 2))).synthesize()
        return row_major, blocked

    row_major, blocked = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        format_table(
            ["Data organisation", "delay/ns", "area/cells"],
            [
                ["row-major (paper)", row_major.delay_ns, row_major.area_cells],
                ["2x2 blocked", blocked.delay_ns, blocked.area_cells],
            ],
            title="Extension -- effect of data organisation on the SRAG (16x16 read)",
        )
    )
    assert blocked.delay_ns <= row_major.delay_ns * 1.1


def test_design_space_exploration(benchmark, print_report):
    pattern = motion_estimation.new_img_read_pattern(8, 8, 2, 2)
    result = benchmark.pedantic(lambda: explore(pattern), rounds=1, iterations=1)
    print_report(result.describe())
    assert {"SRAG", "CntAG"}.issubset({p.style for p in result.points})
    assert result.pareto()
