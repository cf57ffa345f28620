"""repro -- reproduction of "Performance-Area Trade-Off of Address Generators
for Address Decoder-Decoupled Memory" (Hettiaratchi, Cheung, Clarke; DATE 2002).

The package is organised in layers (README.md's subsystem map lists them all):

* :mod:`repro.hdl` -- structural RTL substrate (netlists, primitives,
  simulator, components, HDL emitters).
* :mod:`repro.synth` -- standard-cell library, buffering, static timing,
  area accounting, two-level logic minimisation and FSM synthesis.
* :mod:`repro.memory` -- data layouts: where each word sits in the array.
* :mod:`repro.workloads` -- the paper's access patterns (motion estimation,
  DCT, zoom, FIFO) and additional synthetic patterns.
* :mod:`repro.core` -- the paper's contribution: the SRAG architecture, the
  SRAdGen mapping procedure and the two-hot ADDM generator.
* :mod:`repro.generators` -- baseline architectures (CntAG, arithmetic,
  symbolic FSM, SFM pointers) behind a common interface.
* :mod:`repro.analysis` -- trade-off records, design-space exploration and
  report formatting.

The package holds only what a ``sradgen`` mode runs.  Test oracles (memory
models, reference minimiser and toggle counter, the SAT cover check) live
in ``tests/oracles/``; the repository's own Python lint rules live in
``tools/``.

Quickstart::

    from repro.workloads import motion_estimation
    from repro.core.sradgen import generate

    sequence = motion_estimation.read_sequence(16, 16, 2, 2)
    result = generate(sequence, synthesize=True)
    print(result.describe())

No package root re-exports names: import each one from its defining
submodule, so a ``sradgen`` process loads only the layers its mode runs.
"""
