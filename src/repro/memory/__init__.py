"""Memory models.

Functional models of the three memory organisations discussed in the paper:

* :mod:`repro.memory.ram` -- :class:`ConventionalRAM`, the standard RAM
  model of Figure 1, with built-in row/column address decoders and a binary
  address port.
* :mod:`repro.memory.addm` -- :class:`AddressDecoderDecoupledMemory`, the
  proposed ADDM model of Figure 2, whose cell array is driven directly by
  row-select and column-select lines (and which therefore corrupts data if
  more than one line is asserted -- the hazard called out in the paper's
  conclusion).
* :mod:`repro.memory.sfm` -- :class:`SequentialFifoMemory`, Aloqeely's
  Sequential FIFO Memory (Figure 6), the prior art the SRAG improves on.
* :mod:`repro.memory.cell_array` -- :class:`MemoryCellArray` and
  :class:`MultipleSelectError`, the cell array the three models share.
* :mod:`repro.memory.layout` -- :class:`DataLayout`, :data:`ROW_MAJOR`,
  :data:`COLUMN_MAJOR` and :class:`BlockedLayout`, the placements of data
  in the array.

The paper excludes the memory cell array from all area/delay figures, so
these models are used for functional verification (does a generated address
generator stream the right data in and out?) rather than for estimation.

The package root imports nothing: import each name from its defining
submodule, so a process that needs only a data layout (every ``sradgen``
mode, through :mod:`repro.workloads.sequences`) loads no memory model.
"""
