"""Memory-side data placement.

* :mod:`repro.memory.layout` -- :class:`DataLayout`, :data:`ROW_MAJOR`,
  :data:`COLUMN_MAJOR` and :class:`BlockedLayout`, the placements of data
  in the array that the workloads map addresses through.

The functional memory models the generators are checked against (the
conventional RAM, the ADDM, Aloqeely's Sequential FIFO Memory and their
shared cell array) are test oracles, not product code: the paper excludes
the memory cell array from every area/delay figure, so no ``sradgen`` mode
runs them.  They live in ``tests/oracles/``.

The package root imports nothing: import each name from its defining
submodule.
"""
