"""Binary address decoder builder.

The conventional RAM model of Figure 1 decodes a binary row/column address
into one-hot row-select / column-select lines with built-in decoders.  The
CntAG baseline keeps those decoders outside the memory, so their area and
delay are charged to the address generator.  The decoder is elaborated as a
true/complement buffer stage followed by one AND tree per output line, which
gives the expected scaling: area grows linearly with the number of outputs
(2^n) and delay grows both with the AND-tree depth (log n) and with the heavy
fan-out on the address bits — exactly the effect the paper observes in
Figure 9 where the decoder delay overtakes the counter delay for large
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hdl.components.gates import build_and_tree
from repro.hdl.netlist import Bus, Net, Netlist, NetlistError

__all__ = ["Decoder", "build_decoder"]


@dataclass
class Decoder:
    """Ports of an elaborated binary-to-one-hot decoder."""

    outputs: Bus
    address_width: int
    num_outputs: int


#: Maximum address-group width decoded directly (without pre-decoding).
_MAX_DIRECT_WIDTH = 4


def _build_direct_decoder(
    netlist: Netlist,
    address: Sequence[Net],
    num_outputs: int,
    prefix: str,
) -> List[Net]:
    """Decode a narrow address group directly with one AND tree per output."""
    width = len(address)
    complements: List[Net] = []
    for i, bit in enumerate(address):
        comp = netlist.new_net(f"{prefix}_n{i}_")
        netlist.add_cell("INV", A=bit, Y=comp)
        complements.append(comp)
    outputs: List[Net] = []
    for k in range(num_outputs):
        terms = [
            address[i] if (k >> i) & 1 else complements[i] for i in range(width)
        ]
        outputs.append(build_and_tree(netlist, terms, prefix=f"{prefix}_o{k}"))
    return outputs


def build_decoder(
    netlist: Netlist,
    address: Sequence[Net],
    *,
    num_outputs: Optional[int] = None,
    prefix: str = "dec",
) -> Decoder:
    """Build a one-hot decoder over ``address``.

    Addresses up to four bits are decoded directly (one AND tree per output).
    Wider addresses use the standard pre-decoding structure: the address is
    split into groups of at most four bits, each group is decoded into its
    own one-hot lines, and every final output ANDs together one pre-decoded
    line per group.  Pre-decoding is what keeps real decoders' area roughly
    linear in the number of outputs, while their delay still grows with the
    array size because each pre-decoded line fans out to more and more output
    gates -- the effect behind Figure 9 of the paper.

    Parameters
    ----------
    address:
        Binary address bus, LSB first.
    num_outputs:
        Number of select lines to generate; defaults to ``2 ** len(address)``.
    """
    width = len(address)
    if width == 0:
        raise NetlistError("decoder needs at least one address bit")
    max_outputs = 1 << width
    if num_outputs is None:
        num_outputs = max_outputs
    if not (1 <= num_outputs <= max_outputs):
        raise NetlistError(
            f"decoder with {width} address bits supports 1..{max_outputs} outputs, "
            f"got {num_outputs}"
        )

    if width <= _MAX_DIRECT_WIDTH:
        outputs = _build_direct_decoder(netlist, address, num_outputs, prefix)
    else:
        # Split the address into groups of at most four bits and pre-decode
        # each group; the groups are LSB-first so output k selects line
        # (k % group0_size) of group 0, and so on.
        groups: List[Sequence[Net]] = []
        start = 0
        while start < width:
            groups.append(address[start:start + _MAX_DIRECT_WIDTH])
            start += _MAX_DIRECT_WIDTH
        predecoded: List[List[Net]] = []
        for g, group in enumerate(groups):
            predecoded.append(
                _build_direct_decoder(
                    netlist, group, 1 << len(group), f"{prefix}_pre{g}"
                )
            )
        outputs = []
        for k in range(num_outputs):
            terms: List[Net] = []
            remaining = k
            for group, lines in zip(groups, predecoded):
                group_size = 1 << len(group)
                terms.append(lines[remaining % group_size])
                remaining //= group_size
            outputs.append(build_and_tree(netlist, terms, prefix=f"{prefix}_o{k}"))

    return Decoder(
        outputs=Bus(outputs, name=prefix),
        address_width=width,
        num_outputs=num_outputs,
    )
