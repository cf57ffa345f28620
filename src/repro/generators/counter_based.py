"""Counter-based address generator with address decoders (CntAG).

This is the baseline the paper compares the SRAG against (Section 6): "for
regular access patterns, it performs better than arithmetic-based address
generators".  The architecture is the classic counter-based style:

* one cascaded binary counter per loop of the affine nest that produced the
  access pattern (the innermost counter advances on every ``next``; an outer
  counter advances when every counter inside it is at its terminal count),
* shift-and-add logic computing the binary row and column addresses from the
  counter values according to the affine index expressions, and
* -- because the generator drives a *conventional* memory interface -- a row
  decoder and a column decoder turning those binary addresses into select
  lines.  The decoders are the part the ADDM/SRAG approach eliminates, and
  their growth with the array size is what produces the delay trend of
  Figures 8 and 9.

``include_decoders=False`` builds the same generator without the decoders,
which is used both for the "counter" component of Figure 9 and for driving a
conventional RAM whose decoders are internal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.flow import FlowSpec
from repro.generators.base import AddressGeneratorDesign
from repro.hdl.components.adder import build_ripple_adder
from repro.hdl.components.counter import BinaryCounter, build_binary_counter
from repro.hdl.components.decoder import build_decoder
from repro.hdl.components.gates import build_and_tree
from repro.hdl.netlist import Bus, Net, Netlist, NetlistError, sanitise_name
from repro.hdl.simulator import AddressEncoding
from repro.synth.cell_library import CellLibrary, STD018
from repro.synth.report import SynthesisResult
from repro.synth.flow import run_synthesis_flow
from repro.workloads.loopnest import AffineAccessPattern, AffineExpression

__all__ = [
    "CounterBasedAddressGenerator",
    "build_standalone_decoder",
    "standalone_decoder_report",
]


def _address_width(extent: int) -> int:
    """Bits needed to represent addresses ``0 .. extent - 1``."""
    return max(1, (extent - 1).bit_length())


class CounterBasedAddressGenerator(AddressGeneratorDesign):
    """CntAG: cascaded loop counters + affine address computation + decoders."""

    style = "CntAG"

    def __init__(
        self,
        pattern: AffineAccessPattern,
        *,
        include_decoders: bool = True,
        use_concatenation: bool = True,
        name: Optional[str] = None,
    ):
        self.use_concatenation = use_concatenation
        for loop in pattern.loops:
            if loop.step != 1:
                raise NetlistError(
                    f"CntAG requires unit-stride loops, loop {loop.var!r} has "
                    f"step {loop.step}"
                )
            if loop.trip_count < 1:
                raise NetlistError(f"loop {loop.var!r} has zero iterations")
        self.pattern = pattern
        self.include_decoders = include_decoders
        sequence = pattern.to_sequence()
        label = name or (
            f"cntag_{pattern.name}" if include_decoders else f"cntag_nodec_{pattern.name}"
        )
        super().__init__(sequence, name=label)
        self.row_width = _address_width(pattern.rows)
        self.col_width = _address_width(pattern.cols)
        self.address_encoding = AddressEncoding(
            (("ra", self.row_width), ("ca", self.col_width)), onehot=False, cols=pattern.cols
        )

    # -------------------------------------------------------------- elaborate
    def elaborate(self) -> Netlist:
        netlist = Netlist(sanitise_name(self.name))
        clk = netlist.add_input("clk")
        next_signal = netlist.add_input("next")
        reset = netlist.add_input("reset")

        counters = self._build_loop_counters(netlist, clk, next_signal, reset)
        row_bus = self._build_affine_address(
            netlist, counters, self.pattern.row_expr, self.row_width, prefix="ra"
        )
        col_bus = self._build_affine_address(
            netlist, counters, self.pattern.col_expr, self.col_width, prefix="ca"
        )
        netlist.add_output_bus("ra", row_bus)
        netlist.add_output_bus("ca", col_bus)

        if self.include_decoders:
            row_decoder = build_decoder(
                netlist, row_bus, num_outputs=self.pattern.rows, prefix="rowdec"
            )
            col_decoder = build_decoder(
                netlist, col_bus, num_outputs=self.pattern.cols, prefix="coldec"
            )
            netlist.add_output_bus("rs", row_decoder.outputs)
            netlist.add_output_bus("cs", col_decoder.outputs)
        return netlist

    def _build_loop_counters(
        self, netlist: Netlist, clk: Net, next_signal: Net, reset: Net
    ) -> Dict[str, BinaryCounter]:
        """Cascaded counters, innermost enabled by ``next``."""
        counters: Dict[str, BinaryCounter] = {}
        loops = self.pattern.loops
        # Build innermost-first so each counter's enable can AND the terminal
        # counts of every loop nested inside it.
        inner_terminal_counts: List[Net] = []
        for loop in reversed(loops):
            if inner_terminal_counts:
                enable = build_and_tree(
                    netlist,
                    [next_signal] + inner_terminal_counts,
                    prefix=f"en_{loop.var}",
                )
            else:
                enable = next_signal
            counter = build_binary_counter(
                netlist,
                loop.trip_count,
                clk,
                enable=enable,
                reset=reset,
                prefix=f"cnt_{loop.var}",
            )
            counters[loop.var] = counter
            inner_terminal_counts.append(counter.terminal_count)
        return counters

    def _build_affine_address(
        self,
        netlist: Netlist,
        counters: Dict[str, BinaryCounter],
        expression: AffineExpression,
        width: int,
        *,
        prefix: str,
    ) -> Bus:
        """Shift-and-add evaluation of an affine expression over the counters.

        Each term is a counter bus shifted by a power of two (from the binary
        expansion of its coefficient) plus an optional constant.  When the
        terms occupy pairwise-disjoint bit ranges -- the common case for
        block-based patterns, where e.g. ``row = g*mb_height + k`` with
        ``k < mb_height`` and ``mb_height`` a power of two -- no addition can
        ever carry, so the "sum" is pure wiring (concatenation).  A synthesis
        tool performs the same range analysis; modelling it keeps the CntAG's
        counter section fast and lets the decoders dominate its delay, as in
        the paper's Figure 9.  Terms that do overlap are summed with ripple
        adders.
        """
        loop_starts = {loop.var: loop.start for loop in self.pattern.loops}
        constant = expression.constant
        # Each term: (shift, bus, max_value) with max_value the largest value
        # the shifted bus can take given the counter modulus.
        terms: List[Tuple[int, Bus, int]] = []
        for var, coeff in expression.coefficients:
            if coeff == 0:
                continue
            if coeff < 0:
                raise NetlistError(
                    f"CntAG supports non-negative affine coefficients, "
                    f"got {coeff} for {var!r}"
                )
            if var not in counters:
                raise NetlistError(f"expression references unknown loop {var!r}")
            # Fold the loop start value into the constant so the counter
            # (which counts from zero) can be used directly.
            constant += coeff * loop_starts[var]
            counter = counters[var]
            # Binary expansion of the coefficient: coeff * x is the sum of
            # x << b for every set bit b.
            for shift in range(coeff.bit_length()):
                if not (coeff >> shift) & 1:
                    continue
                terms.append(
                    (shift, counter.count, (counter.modulus - 1) << shift)
                )
        if constant < 0:
            raise NetlistError(f"negative address constant {constant}")
        if not terms:
            return netlist.const_bus(constant, width)

        if self.use_concatenation and constant == 0 and self._bit_ranges_disjoint(terms):
            return self._concatenate_terms(netlist, terms, width)

        summed_terms: List[Bus] = []
        for shift, bus, _max_value in terms:
            shifted = [netlist.const(0)] * shift + list(bus)
            summed_terms.append(Bus(shifted[:width], name=f"{prefix}_t{shift}"))
        if constant:
            summed_terms.append(netlist.const_bus(constant, width))
        total = self._pad(netlist, summed_terms[0], width)
        for index, term in enumerate(summed_terms[1:]):
            padded = self._pad(netlist, term, width)
            total, _carry = build_ripple_adder(
                netlist, total, padded, prefix=f"{prefix}_add{index}"
            )
        return total

    @staticmethod
    def _bit_ranges_disjoint(terms: List[Tuple[int, Bus, int]]) -> bool:
        """True when no two shifted terms can have a set bit in the same position."""
        occupied = 0
        for shift, _bus, max_value in terms:
            if max_value == 0:
                continue
            low = shift
            high = max_value.bit_length() - 1
            mask = ((1 << (high - low + 1)) - 1) << low
            if occupied & mask:
                return False
            occupied |= mask
        return True

    @staticmethod
    def _concatenate_terms(
        netlist: Netlist, terms: List[Tuple[int, Bus, int]], width: int
    ) -> Bus:
        """Wire disjoint terms directly onto the address bus (no adders)."""
        bits: List[Optional[Net]] = [None] * width
        for shift, bus, max_value in terms:
            useful_bits = max(0, max_value.bit_length() - shift)
            for i in range(min(useful_bits, len(bus))):
                position = shift + i
                if position < width and bits[position] is None:
                    bits[position] = bus[i]
        return Bus(
            [bit if bit is not None else netlist.const(0) for bit in bits],
            name="concat_addr",
        )

    @staticmethod
    def _pad(netlist: Netlist, bus: Bus, width: int) -> Bus:
        bits = list(bus)[:width]
        while len(bits) < width:
            bits.append(netlist.const(0))
        return Bus(bits, name=bus.name)

    # ------------------------------------------------------------- components
    def counter_section_report(self, library: CellLibrary = STD018) -> SynthesisResult:
        """Area/delay of the counter + address-computation section alone.

        This is the "counter" series of the paper's Figure 9.
        """
        counter_only = CounterBasedAddressGenerator(
            self.pattern,
            include_decoders=False,
            use_concatenation=self.use_concatenation,
            name=f"{self.name}_counter",
        )
        return counter_only.synthesize(spec=FlowSpec(library=library))

    def component_reports(
        self, library: CellLibrary = STD018
    ) -> Dict[str, SynthesisResult]:
        """Per-component reports in the style of the paper's Figure 9.

        Returns the ``counter`` section (loop counters plus address
        computation), the ``row_decoder`` and the ``column_decoder`` as three
        independently synthesised blocks.  The paper computes the total CntAG
        delay as "the sum of the counter delay and the worst of the row or
        the column decoder delay";
        :func:`repro.analysis.tradeoff.evaluate_cntag` is the one place that
        sum is computed.
        """
        return {
            "counter": self.counter_section_report(library),
            "row_decoder": standalone_decoder_report(
                self.row_width, self.pattern.rows, library
            ),
            "column_decoder": standalone_decoder_report(
                self.col_width, self.pattern.cols, library
            ),
        }


def build_standalone_decoder(address_width: int, num_outputs: int) -> Netlist:
    """A decoder with registered address inputs, for component timing.

    The address register stands in for the counter flip-flops that feed the
    decoder inside the full CntAG, so the reported path (clock-to-Q, decode
    logic, output) matches the decoder contribution of Figure 9.
    """
    netlist = Netlist(f"decoder_{address_width}to{num_outputs}")
    clk = netlist.add_input("clk")
    address_in = netlist.add_input_bus("a", address_width)
    registered: List[Net] = []
    for i, bit in enumerate(address_in):
        q = netlist.new_net(f"areg_{i}_")
        netlist.add_cell("DFF", name=f"areg_ff{i}", D=bit, CLK=clk, Q=q)
        registered.append(q)
    decoder = build_decoder(
        netlist, Bus(registered, name="a_reg"), num_outputs=num_outputs, prefix="dec"
    )
    netlist.add_output_bus("sel", decoder.outputs)
    return netlist


def standalone_decoder_report(
    address_width: int,
    num_outputs: int,
    library: CellLibrary = STD018,
) -> SynthesisResult:
    """Synthesis report for a standalone ``address_width`` -> ``num_outputs`` decoder."""
    netlist = build_standalone_decoder(address_width, num_outputs)
    return run_synthesis_flow(
        netlist,
        spec=FlowSpec(library=library),
        name=netlist.name,
        metadata={"address_width": address_width, "num_outputs": num_outputs},
    )
