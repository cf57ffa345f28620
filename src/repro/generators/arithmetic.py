"""Arithmetic-based address generator.

The second conventional style the paper mentions (via the ADOPT work of
Miranda et al.): instead of decoding loop counters, an *accumulator* register
holds the current binary address and an adder applies the stride to reach the
next one.  For sequences with a single constant stride (raster scans, FIFOs)
this is extremely cheap; for sequences whose stride changes with position a
stride-selection function of a position counter is needed, and that is where
the style loses to counter-based generation for regular block patterns --
the reason the paper benchmarks against CntAG rather than this generator.

The implementation keeps the full generality: a position counter (modulo the
sequence length) indexes a two-level-minimised stride table feeding the
adder.  When every stride is identical the position counter and table
disappear and the design collapses to the classic accumulator.
"""

from __future__ import annotations

from typing import Dict, List

from repro.generators.base import AddressGeneratorDesign
from repro.hdl.components.adder import build_ripple_adder
from repro.hdl.components.counter import build_binary_counter
from repro.hdl.netlist import Bus, Net, Netlist, NetlistError, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.synth.logic.minimize import minimize
from repro.synth.logic.synthesize import sop_to_netlist
from repro.synth.logic.truth_table import TruthTable
from repro.workloads.sequences import AddressSequence

__all__ = ["ArithmeticAddressGenerator"]


class ArithmeticAddressGenerator(AddressGeneratorDesign):
    """Accumulator-plus-stride-table address generator."""

    style = "ArithAG"

    def __init__(self, sequence: AddressSequence):
        size = sequence.rows * sequence.cols
        if size & (size - 1):
            raise NetlistError(
                "the arithmetic generator requires a power-of-two array so the "
                f"accumulator can wrap naturally, got {sequence.rows}x{sequence.cols}"
            )
        super().__init__(sequence, f"arith_{sequence.name}")
        self.address_width = max(1, (size - 1).bit_length())
        self.address_encoding = AddressEncoding((("addr", self.address_width),), onehot=False)
        self._strides = self._compute_strides()

    def _compute_strides(self) -> List[int]:
        """Stride from each position to the next, modulo the array size."""
        size = self.sequence.rows * self.sequence.cols
        linear = self.sequence.linear
        strides = []
        for position, address in enumerate(linear):
            following = linear[(position + 1) % len(linear)]
            strides.append((following - address) % size)
        return strides

    @property
    def distinct_strides(self) -> List[int]:
        """The set of strides the sequence uses, in first-use order."""
        seen = []
        for stride in self._strides:
            if stride not in seen:
                seen.append(stride)
        return seen

    # -------------------------------------------------------------- elaborate
    def elaborate(self) -> Netlist:
        netlist = Netlist(sanitise_name(self.name))
        clk = netlist.add_input("clk")
        next_signal = netlist.add_input("next")
        reset = netlist.add_input("reset")

        stride_bus = self._build_stride_source(netlist, clk, next_signal, reset)

        # Accumulator register holding the current linear address; it resets
        # to the first address of the sequence.
        first_address = self.sequence.linear[0]
        state: List[Net] = [
            netlist.new_net(f"acc_q{i}_") for i in range(self.address_width)
        ]
        summed, _carry = build_ripple_adder(netlist, Bus(state), stride_bus, prefix="acc_add")
        for i in range(self.address_width):
            starts_high = bool((first_address >> i) & 1)
            netlist.add_cell(
                "DFF_EN_SET" if starts_high else "DFF_EN_RST",
                name=f"acc_ff{i}",
                D=summed[i],
                CLK=clk,
                EN=next_signal,
                Q=state[i],
                **{"SET" if starts_high else "RST": reset},
            )
        address_bus = Bus(state, name="address")
        netlist.add_output_bus("addr", address_bus)
        return netlist

    def _build_stride_source(
        self, netlist: Netlist, clk: Net, next_signal: Net, reset: Net
    ) -> Bus:
        """Constant stride, or a position-indexed stride table."""
        distinct = self.distinct_strides
        if len(distinct) == 1:
            return netlist.const_bus(distinct[0], self.address_width)

        length = len(self._strides)
        position = build_binary_counter(
            netlist, length, clk, enable=next_signal, reset=reset, prefix="poscnt"
        )
        width = position.width
        dc_set = frozenset(v for v in range(1 << width) if v >= length)
        inverter_cache: Dict[str, Net] = {}
        bits: List[Net] = []
        for bit in range(self.address_width):
            on_set = frozenset(
                pos for pos, stride in enumerate(self._strides) if (stride >> bit) & 1
            )
            table = TruthTable(num_inputs=width, on_set=on_set, dc_set=dc_set)
            cover, _stats = minimize(table)
            bits.append(
                sop_to_netlist(
                    netlist,
                    cover,
                    list(position.count),
                    prefix=f"stride_b{bit}",
                    inverter_cache=inverter_cache,
                )
            )
        return Bus(bits, name="stride")
