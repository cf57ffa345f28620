"""SRAdGen automatic mapping procedure (Section 5 of the paper).

Maps a one-dimensional address sequence onto the SRAG architecture: it
derives the division count ``dC``, the shift-register grouping ``S`` and the
pass count ``pC``, and verifies (by simulating the functional SRAG model)
that the mapped architecture really regenerates the input sequence -- the
"verification step" the paper requires because initial grouping can fail for
sequences such as ``1,2,3,4,3,2,1,4``.

A :class:`~repro.core.mapping_params.MappingError` is raised whenever the
sequence violates one of the single-counter restrictions:

* **DivCnt restriction** -- every address's consecutive repetition count must
  be the same,
* **PassCnt restriction** -- the portion of the reduced sequence produced by
  each shift register must be the same,
* **verification failure** -- the grouped registers do not regenerate the
  sequence (irregular orderings).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.mapping_params import MappingError, SragMapping
from repro.workloads.sequences import (
    AddressSequence,
    collapse_repetitions,
    consecutive_repetitions,
)

__all__ = ["map_sequence", "map_address_sequence"]


def map_sequence(
    sequence: Sequence[int],
    num_lines: Optional[int] = None,
    *,
    verify: bool = True,
) -> SragMapping:
    """Map a 1-D address sequence onto SRAG parameters.

    Parameters
    ----------
    sequence:
        The address sequence ``I`` (for example a RowAS or ColAS).
    num_lines:
        Number of select lines in this dimension; defaults to
        ``max(sequence) + 1``.
    verify:
        Run the functional-model verification step (recommended; the paper
        requires it).

    Returns
    -------
    SragMapping
        The full parameter set of Table 2.

    Raises
    ------
    MappingError
        If the sequence violates the DivCnt or PassCnt restriction, or fails
        verification.
    """
    addresses = list(sequence)
    if not addresses:
        raise MappingError("cannot map an empty address sequence")
    if min(addresses) < 0:
        raise MappingError("address sequences must be non-negative")
    if num_lines is None:
        num_lines = max(addresses) + 1
    elif max(addresses) >= num_lines:
        raise MappingError(
            f"address {max(addresses)} outside the {num_lines} select lines"
        )

    # Step 1: division counts D and the common dC.
    division_counts = consecutive_repetitions(addresses)
    distinct_counts = set(division_counts)
    if len(distinct_counts) > 1:
        raise MappingError(
            "DivCnt restriction violated: consecutive repetition counts are "
            f"not all equal ({sorted(distinct_counts)})"
        )
    div_count = division_counts[0]

    # Step 2: reduced sequence R.
    reduced = collapse_repetitions(addresses)

    # Step 3: unique addresses U in first-appearance order.
    unique: List[int] = []
    seen = set()
    for address in reduced:
        if address not in seen:
            seen.add(address)
            unique.append(address)

    # Step 4: occurrence counts O and first positions Z.
    occurrences = [reduced.count(address) for address in unique]
    first_positions = [reduced.index(address) for address in unique]

    # Step 5: initial grouping of consecutive unique addresses.
    registers = _group_registers(unique, occurrences, first_positions)

    # Step 6: pass counts P and the common pC.
    pass_counts, block_lengths = _pass_counts(reduced, registers)
    distinct_pass = set(block_lengths)
    if len(distinct_pass) > 1:
        raise MappingError(
            "PassCnt restriction violated: per-register pass counts are not "
            f"all equal ({sorted(distinct_pass)})"
        )
    pass_count = pass_counts[0]

    mapping = SragMapping(
        sequence=addresses,
        division_counts=division_counts,
        reduced=reduced,
        unique=unique,
        occurrences=occurrences,
        first_positions=first_positions,
        registers=registers,
        pass_counts=pass_counts,
        div_count=div_count,
        pass_count=pass_count,
        num_lines=num_lines,
    )

    if verify:
        _verify(mapping)
    return mapping


def _group_registers(
    unique: Sequence[int],
    occurrences: Sequence[int],
    first_positions: Sequence[int],
) -> List[Tuple[int, ...]]:
    """Initial grouping: consecutive unique addresses that occur the same
    number of times and first appear consecutively share a shift register."""
    registers: List[Tuple[int, ...]] = []
    current: List[int] = []
    for k, address in enumerate(unique):
        if not current:
            current = [address]
            continue
        same_occurrences = occurrences[k] == occurrences[k - 1]
        consecutive_first = first_positions[k] == first_positions[k - 1] + 1
        if same_occurrences and consecutive_first:
            current.append(address)
        else:
            registers.append(tuple(current))
            current = [address]
    if current:
        registers.append(tuple(current))
    return registers


def _pass_counts(
    reduced: Sequence[int], registers: Sequence[Tuple[int, ...]]
) -> Tuple[List[int], List[int]]:
    """Pass count of each register: how much of R it produces before passing.

    The reduced sequence is scanned in order and each element is attributed
    to the register containing its address.  The token stays in one register
    until it passes, so R decomposes into contiguous ownership blocks; the
    length of register ``i``'s first block is its pass count ``P_i``, and the
    PassCnt restriction demands that *every* block (including repeats when
    the pattern wraps within I) has the same length.

    Returns ``(per_register_pass_counts, all_block_lengths)``.
    """
    owner = {}
    for index, register in enumerate(registers):
        for address in register:
            owner[address] = index

    blocks: List[Tuple[int, int]] = []  # (register index, block length)
    for address in reduced:
        register_index = owner[address]
        if blocks and blocks[-1][0] == register_index:
            blocks[-1] = (register_index, blocks[-1][1] + 1)
        else:
            blocks.append((register_index, 1))

    per_register: List[int] = []
    for index in range(len(registers)):
        lengths = [length for reg, length in blocks if reg == index]
        per_register.append(lengths[0] if lengths else 0)
    return per_register, [length for _, length in blocks]


def _verify(mapping: SragMapping) -> None:
    """Simulate the functional SRAG model and compare against the input."""
    # Imported here to avoid a circular import (srag builds on the mapping).
    from repro.core.srag import SragFunctionalModel

    model = SragFunctionalModel.from_mapping(mapping)
    produced = model.run(len(mapping.sequence))
    if produced != list(mapping.sequence):
        raise MappingError(
            "verification step failed: the grouped SRAG regenerates "
            f"{produced[:16]}... instead of {list(mapping.sequence)[:16]}..."
        )


def map_address_sequence(
    sequence: AddressSequence, *, verify: bool = True
) -> Tuple[SragMapping, SragMapping]:
    """Map both dimensions of a 2-D :class:`AddressSequence`.

    Returns ``(row_mapping, column_mapping)`` -- the inputs to the row SRAG
    and the column SRAG of the complete two-hot generator.
    """
    row_mapping = map_sequence(
        sequence.row_sequence, num_lines=sequence.rows, verify=verify
    )
    col_mapping = map_sequence(
        sequence.col_sequence, num_lines=sequence.cols, verify=verify
    )
    return row_mapping, col_mapping
