"""What logic optimization is worth, per architecture (the O0 vs O1 table).

The paper's synthesis figures come out of Design Compiler, which always
optimizes before reporting; our ``run_synthesis_flow`` historically reported
on the raw generated netlist.  This benchmark regenerates the comparison the
``opt_levels`` campaign sweeps -- cell count and area at O0 versus O1 for
every style on one representative workload -- and pins the structural claims:
the optimizer strictly shrinks the decoder-based CntAG (shared AND-tree
prefixes, constant-enable folding), and an O1 netlist is already at its
fixpoint (optimizing twice changes nothing).
"""

from repro.analysis.reporting import format_table
from repro.engine.jobs import build_design
from repro.flow import FlowSpec
from repro.synth.flow import run_synthesis_flow
from repro.workloads.registry import build_pattern

STYLES = (
    ("SRAG", "two-hot"),
    ("CntAG", "decoders"),
    ("CntAG", "adders"),
    ("ArithAG", "binary"),
    ("FSM", "binary"),
)


def _measure(style, variant, opt_level):
    design = build_design(build_pattern("motion_est_read", 16, 16), style, variant)
    result = run_synthesis_flow(design.netlist, spec=FlowSpec(opt_level=opt_level))
    return sum(result.area.cell_counts.values()), result.area_cells, result


def test_opt_levels_table(benchmark, print_report):
    rows = []
    wins = {}
    for style, variant in STYLES:
        raw_cells, raw_area, _ = _measure(style, variant, 0)
        opt_cells, opt_area, opt_result = _measure(style, variant, 1)
        wins[(style, variant)] = opt_result.opt_report.cells_removed
        rows.append(
            [
                f"{style}[{variant}]",
                raw_cells,
                opt_cells,
                raw_area,
                opt_area,
                100.0 * (raw_area - opt_area) / raw_area,
            ]
        )

    # The recorded stat is one full O1 synthesis of the decoder CntAG, the
    # point the motivation singles out.
    benchmark.pedantic(
        lambda: _measure("CntAG", "decoders", 1), rounds=3, iterations=1
    )

    print_report(
        format_table(
            ["style", "cells O0", "cells O1", "area O0", "area O1", "area -%"],
            rows,
            title="logic optimization win, motion_est_read 16x16",
        )
    )

    # Decoder-heavy CntAG must shrink strictly; nothing may ever grow.
    assert wins[("CntAG", "decoders")] > 0
    for row in rows:
        assert row[2] <= row[1], f"{row[0]}: O1 grew the netlist"
        assert row[4] <= row[3], f"{row[0]}: O1 grew the area"

    # Idempotence: an O1 netlist re-optimizes to itself.
    design = build_design(build_pattern("motion_est_read", 16, 16), "CntAG", "decoders")
    once = run_synthesis_flow(design.netlist, spec=FlowSpec(opt_level=1))
    from repro.synth.opt import optimize_netlist

    clone = design.netlist.clone()
    optimize_netlist(clone)
    again = optimize_netlist(clone)
    assert not again.changed
    assert sum(once.area.cell_counts.values()) >= len(clone.cells)
