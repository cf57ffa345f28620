"""Test oracles: reference models that no ``sradgen`` mode runs.

Each module is either a functional model the tests drive generated
hardware against, or the straightforward formulation a fast path in
``src/repro`` replaced, kept so the tests can require identical results:

* :mod:`oracles.cell_array`, :mod:`oracles.ram`, :mod:`oracles.addm` and
  :mod:`oracles.sfm` -- the memory organisations of the paper's Figures 1,
  2 and 6 (the paper excludes the cell array from every area/delay figure).
* :mod:`oracles.two_hot` -- two-hot select-vector helpers.
* :mod:`oracles.qm` -- pre-bitset Quine-McCluskey prime generation and
  cover selection.
* :mod:`oracles.power` -- toggle counting on the reference simulator.
* :mod:`oracles.cover` -- a SAT proof that an SOP cover equals its truth
  table.

``pytest.ini`` puts ``tests/`` on ``sys.path``, so the test suites and the
benchmarks import these as ``oracles.<module>``.
"""
