"""Dynamic-power estimation from switching activity.

The paper's conclusion states: "Although we expect this decoder decoupling
approach to reduce power dissipation, in this work we have not carried out a
rigorous study of it."  This module carries out that study for the
reproduction's structural models:

* every net's **switching activity** is measured by running the gate-level
  simulator over a representative number of cycles of the design's own
  address sequence,
* each toggle is charged the energy of switching the net's load capacitance
  (fanout pin capacitance plus wire capacitance) at the library's supply
  voltage, plus a per-cell internal energy proportional to the driving cell's
  input capacitance,
* flip-flops are additionally charged a per-clock-edge internal energy
  (clock-pin toggling), which is what makes the SRAG's many flip-flops the
  interesting term of the comparison.

The absolute numbers are indicative (pre-layout, no clock-tree or glitch
modelling); the intended use is the *relative* comparison between address
generator architectures, mirroring how area and delay are treated elsewhere
in the reproduction.

The inner loop runs on :class:`~repro.hdl.compiled.CompiledSimulator`, which
counts toggles inside its levelised event-driven stepping loop; the original
dict-driven measurement survives as ``engine="reference"`` and is the oracle
the compiled path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.synth.cell_library import CellLibrary, STD018, net_load

__all__ = ["PowerReport", "estimate_power"]

#: Supply voltage assumed for the 0.18 um-class library (volts).
SUPPLY_VOLTAGE = 1.8

#: Capacitance represented by one "input capacitance unit" of the library, in
#: femtofarads.  A minimum inverter input in a 0.18 um process is ~2 fF.
FEMTOFARAD_PER_CAP_UNIT = 2.0

#: Internal energy charged per flip-flop per clock edge, expressed as an
#: equivalent capacitance (in library cap units) switched at the supply.
FLOP_CLOCK_CAP_UNITS = 1.0


@dataclass
class PowerReport:
    """Switching-activity based power estimate for one netlist.

    Attributes
    ----------
    cycles:
        Number of simulated clock cycles the activity was measured over.
    toggle_counts:
        Net-name to number of observed transitions.
    switching_energy_fj:
        Total net-switching energy over the simulated window, femtojoules.
    clock_energy_fj:
        Total flip-flop clock-pin energy over the window, femtojoules.
    frequency_mhz:
        Clock frequency assumed when converting energy to average power.
    """

    cycles: int
    toggle_counts: Dict[str, int] = field(default_factory=dict)
    switching_energy_fj: float = 0.0
    clock_energy_fj: float = 0.0
    frequency_mhz: float = 100.0

    @property
    def total_energy_fj(self) -> float:
        """Total energy over the simulated window, femtojoules."""
        return self.switching_energy_fj + self.clock_energy_fj

    @property
    def energy_per_access_fj(self) -> float:
        """Average energy per clock cycle (one memory access), femtojoules."""
        return self.total_energy_fj / self.cycles if self.cycles else 0.0

    @property
    def average_power_uw(self) -> float:
        """Average dynamic power in microwatts at ``frequency_mhz``."""
        # fJ per cycle * cycles per second = fJ/s; 1 fJ * 1 MHz = 1 nW.
        return self.energy_per_access_fj * self.frequency_mhz * 1e-3

    @property
    def total_toggles(self) -> int:
        """Total observed net transitions."""
        return sum(self.toggle_counts.values())

    def summary(self) -> str:
        """One-line summary used by benchmarks and the explorer."""
        return (
            f"energy/access = {self.energy_per_access_fj:8.1f} fJ   "
            f"avg power @ {self.frequency_mhz:.0f} MHz = {self.average_power_uw:7.2f} uW   "
            f"toggles = {self.total_toggles}"
        )


def _reset_and_advance(simulator):
    """Reset through ``reset`` and hold ``next`` high, where those ports exist."""
    if "reset" in simulator.netlist.inputs:
        simulator.reset("reset")
    if "next" in simulator.netlist.inputs:
        simulator.poke("next", 1)
    return simulator


def _reference_toggles(netlist: Netlist, cycles: int) -> Dict[str, int]:
    """Measure per-net toggle counts with the reference truth-table simulator.

    Kept as the oracle the compiled fast path is checked against (and for
    debugging); campaigns always go through the compiled engine.
    """
    simulator = _reset_and_advance(Simulator(netlist))

    previous = {name: simulator.peek(net) for name, net in netlist.nets.items()}
    toggles: Dict[str, int] = {name: 0 for name in netlist.nets}
    for _ in range(cycles):
        simulator.step()
        for name, net in netlist.nets.items():
            value = simulator.peek(net)
            if value != previous[name]:
                toggles[name] += 1
                previous[name] = value
    return {name: count for name, count in toggles.items() if count}


def _compiled_toggles(netlist: Netlist, cycles: int) -> Dict[str, int]:
    """Measure per-net toggle counts with the compiled simulator.

    Same protocol and snapshot-per-cycle toggle semantics as the reference
    path, but the settle/count loop is the levelised event-driven program of
    :class:`~repro.hdl.compiled.CompiledSimulator` -- quiescent cones are
    never re-evaluated and untouched nets are never re-scanned.
    """
    simulator = _reset_and_advance(CompiledSimulator(netlist))
    simulator.reset_toggles()
    simulator.run(cycles)
    return simulator.toggle_counts()


def estimate_power(
    netlist: Netlist,
    *,
    library: CellLibrary = STD018,
    cycles: Optional[int] = None,
    engine: str = "compiled",
) -> PowerReport:
    """Estimate dynamic power by simulating ``netlist`` for ``cycles`` cycles.

    The design is reset through its ``reset`` input, its ``next`` input is
    held high (one address per cycle, the paper's usage model), and every
    net transition is recorded.  A design without one of these ports simply
    skips that step.  Average power assumes :class:`PowerReport`'s default
    100 MHz clock.

    Parameters
    ----------
    cycles:
        Simulation window; defaults to 256 cycles (or fewer for tiny designs
        is fine -- activities are periodic in the address sequence length).
    engine:
        ``"compiled"`` (default) runs the levelised event-driven simulator;
        ``"reference"`` runs the original dict-driven simulator.  The two
        produce identical toggle counts -- the reference path exists as the
        oracle for the compiled one.
    """
    if cycles is None:
        cycles = 256
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if engine == "compiled":
        toggles = _compiled_toggles(netlist, cycles)
    elif engine == "reference":
        toggles = _reference_toggles(netlist, cycles)
    else:
        raise ValueError(f"unknown simulation engine {engine!r}")

    # Energy: E = C * V^2 per full toggle (charging + discharging averaged to
    # one CV^2 per transition pair; we charge 0.5 C V^2 per transition).
    volts_squared = SUPPLY_VOLTAGE * SUPPLY_VOLTAGE
    switching_energy = 0.0
    nets = netlist.nets
    for name, count in toggles.items():
        cap_units = net_load(nets[name], library)
        capacitance_ff = cap_units * FEMTOFARAD_PER_CAP_UNIT
        switching_energy += 0.5 * capacitance_ff * volts_squared * count

    flop_count = len(netlist.sequential_cells())
    clock_energy = (
        0.5
        * FLOP_CLOCK_CAP_UNITS
        * FEMTOFARAD_PER_CAP_UNIT
        * volts_squared
        * flop_count
        * cycles
    )

    return PowerReport(
        cycles=cycles,
        toggle_counts=toggles,
        switching_energy_fj=switching_energy,
        clock_energy_fj=clock_energy,
    )
