"""Netlist logic optimization.

A real synthesis flow (the paper's numbers come out of Design Compiler)
always runs logic optimization between elaboration and reporting, so raw
generated netlists -- especially the decoder-heavy CntAG points, whose AND
trees share subterms and whose counters tie enables to constants -- carry
dead and duplicated logic that no reported figure should include.  This
package is that stage for the reproduction: a :class:`PassManager` running
an ordered pipeline of equivalence-preserving rewrites over a
:class:`~repro.hdl.netlist.Netlist`:

* :class:`ConstantFoldPass` -- constant propagation and tie-cell folding
  (cells with controlling constant inputs become ties, wires or inverters);
* :class:`SharePass` -- structural common-subexpression sharing (identical
  cell type + input nets collapse to one cell, with commutative inputs
  canonicalised);
* :class:`InvPairPass` -- back-to-back inverter collapsing;
* :class:`BufferCollapsePass` -- buffer(-chain) removal (high-fanout
  buffering is re-inserted *after* optimization by the synthesis flow);
* :class:`DeadCellPass` -- mark-and-sweep removal of cells that cannot
  reach a top-level output.

Every pass preserves cycle-accurate behaviour at the output ports: the
optimized netlist produces a bit-identical address stream on both the
reference and the compiled simulator (pinned by ``tests/test_synth_opt.py``
for every built-in workload x applicable style).
"""

from repro.synth.opt.manager import (
    DEFAULT_MAX_ROUNDS,
    OptReport,
    PassManager,
    optimize_netlist,
)
from repro.synth.opt.passes import (
    BufferCollapsePass,
    ConstantFoldPass,
    DeadCellPass,
    InvPairPass,
    PassStats,
    SharePass,
)

__all__ = [
    "BufferCollapsePass",
    "ConstantFoldPass",
    "DEFAULT_MAX_ROUNDS",
    "DeadCellPass",
    "InvPairPass",
    "OptReport",
    "PassManager",
    "PassStats",
    "SharePass",
    "optimize_netlist",
]
