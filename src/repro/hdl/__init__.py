"""Structural RTL substrate.

This package provides the hardware-modelling layer that the rest of the
reproduction is built on:

* :mod:`repro.hdl.netlist` -- a flat gate-level netlist representation
  (:class:`~repro.hdl.netlist.Netlist`, :class:`~repro.hdl.netlist.Cell`,
  :class:`~repro.hdl.netlist.Net`, :class:`~repro.hdl.netlist.Bus`).
* :mod:`repro.hdl.primitives` -- the primitive cell vocabulary (gates,
  multiplexors, flip-flops) with functional models used by the simulator.
* :mod:`repro.hdl.simulator` -- a cycle-accurate two-phase simulator for
  netlists built from those primitives (the reference implementation).
* :mod:`repro.hdl.compiled` -- a levelised, event-driven compiled simulator
  that matches the reference bit-for-bit but skips quiescent logic cones;
  the hot path behind power estimation.
* :mod:`repro.hdl.components` -- structural generators for the mid-level
  building blocks used by the paper's address generators (binary counters,
  shift registers, decoders, comparators, adders, wide gates).
* :mod:`repro.hdl.emit` -- VHDL / Verilog emitters.

The netlist layer is deliberately technology-agnostic: cells are referenced
by type name only.  Area and delay live in :mod:`repro.synth.cell_library`,
which maps the same type names onto a 0.18 um-class standard-cell model.

The package root imports nothing: import each name from its defining
submodule, so a process loads only the layers it runs.
"""
