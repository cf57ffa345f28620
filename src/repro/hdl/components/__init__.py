"""Mid-level structural building blocks.

Each function in this package elaborates a commonly-used block (binary
counter, token shift register, n-to-2^n decoder, equality comparator, ripple
adder, wide gates) into primitive cells inside an existing
:class:`~repro.hdl.netlist.Netlist` and returns the nets that form its ports.

These are exactly the blocks the paper's address generators are assembled
from: the SRAG uses shift registers, 2:1 multiplexors and two small binary
counters with comparators; the CntAG baseline uses a binary counter and
row/column decoders; the arithmetic baseline uses adders and registers.
"""

from repro.hdl.components.adder import build_incrementer, build_ripple_adder
from repro.hdl.components.comparator import build_equality_comparator
from repro.hdl.components.counter import BinaryCounter, build_binary_counter
from repro.hdl.components.decoder import build_decoder
from repro.hdl.components.gates import build_and_tree, build_or_tree
from repro.hdl.components.shift_register import TokenShiftRegister, build_token_shift_register

__all__ = [
    "BinaryCounter",
    "TokenShiftRegister",
    "build_binary_counter",
    "build_decoder",
    "build_equality_comparator",
    "build_incrementer",
    "build_ripple_adder",
    "build_token_shift_register",
    "build_and_tree",
    "build_or_tree",
]
