"""Tests for the switching-activity power estimator."""

import pytest

from repro.core.addm_generator import SragAddressGenerator
from repro.generators import CounterBasedAddressGenerator
from repro.hdl.components import build_binary_counter
from repro.hdl.netlist import Netlist
from repro.synth.power import PowerReport, estimate_power
from repro.workloads import motion_estimation


def _counter_netlist(modulus, advance="next"):
    netlist = Netlist("pwr_cnt")
    clk = netlist.add_input("clk")
    nxt = netlist.add_input(advance)
    rst = netlist.add_input("reset")
    counter = build_binary_counter(netlist, modulus, clk, enable=nxt, reset=rst)
    netlist.add_output_bus("c", counter.count)
    return netlist


def test_power_report_basic_properties():
    report = estimate_power(_counter_netlist(8), cycles=64)
    assert report.cycles == 64
    assert report.total_toggles > 0
    assert report.switching_energy_fj > 0
    assert report.clock_energy_fj > 0
    assert report.energy_per_access_fj > 0
    assert report.average_power_uw > 0
    assert "fJ" in report.summary()


def test_power_scales_with_activity():
    """A wider counter toggles more nets and burns more energy per cycle."""
    small = estimate_power(_counter_netlist(4), cycles=64)
    large = estimate_power(_counter_netlist(64), cycles=64)
    assert large.energy_per_access_fj > small.energy_per_access_fj


def test_idle_design_only_burns_clock_power():
    """With its advance input held low the counter never toggles; only clock
    energy remains."""
    netlist = _counter_netlist(16, advance="hold")
    report_idle = PowerReport(cycles=0)
    assert report_idle.energy_per_access_fj == 0

    sim_report = estimate_power(netlist, cycles=32)
    # The netlist has no `next` port, so the estimator never raises its
    # advance input and nothing switches after reset; all remaining energy is
    # clock energy.
    assert sim_report.switching_energy_fj == pytest.approx(0.0)
    assert sim_report.clock_energy_fj > 0


def test_power_rejects_bad_cycle_count():
    with pytest.raises(ValueError):
        estimate_power(_counter_netlist(8), cycles=0)


def test_power_rejects_unknown_engine():
    with pytest.raises(ValueError):
        estimate_power(_counter_netlist(8), cycles=8, engine="spice")


def test_power_engines_agree_exactly():
    """The compiled fast path is bit-for-bit the reference measurement."""
    netlist = _counter_netlist(32)
    reference = estimate_power(netlist, cycles=96, engine="reference")
    compiled = estimate_power(netlist, cycles=96, engine="compiled")
    assert compiled.toggle_counts == reference.toggle_counts
    assert compiled.switching_energy_fj == reference.switching_energy_fj
    assert compiled.clock_energy_fj == reference.clock_energy_fj


def test_srag_vs_cntag_power_comparison_runs():
    """The future-work study: compare SRAG and CntAG energy per access."""
    pattern = motion_estimation.new_img_read_pattern(8, 8, 2, 2)
    sequence = pattern.to_sequence()
    srag = SragAddressGenerator.from_sequence(sequence).netlist
    cntag = CounterBasedAddressGenerator(pattern).elaborate()
    srag_report = estimate_power(srag, cycles=sequence.length)
    cntag_report = estimate_power(cntag, cycles=sequence.length)
    assert srag_report.energy_per_access_fj > 0
    assert cntag_report.energy_per_access_fj > 0
    # The SRAG's data-path activity is tiny (one token moves per access), so
    # its net-switching energy per access stays below the CntAG's, whose
    # counters and decoders toggle many nets every cycle.
    assert (
        srag_report.switching_energy_fj / srag_report.cycles
        < cntag_report.switching_energy_fj / cntag_report.cycles
    )
