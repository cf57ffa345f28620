"""Moore finite-state-machine model for address generation.

The machine advances along its transition list whenever the ``next`` input is
asserted and holds its state otherwise; each state carries a Moore output
vector.  For an address generator targeting the address decoder-decoupled
memory the outputs are select lines (one-hot, or two-hot when row and column
dimensions are combined).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["FiniteStateMachine", "RESET_STATE"]

#: The state every machine enters on reset.
RESET_STATE = 0


@dataclass
class FiniteStateMachine:
    """A Moore FSM with a single advance input.

    Attributes
    ----------
    name:
        Machine name, used for netlist and report naming.
    num_states:
        Number of symbolic states.
    next_state:
        ``next_state[i]`` is the state entered from state ``i`` when the
        ``next`` input is asserted.
    outputs:
        ``outputs[i]`` is the Moore output vector (a tuple of 0/1) in state
        ``i``.  All vectors must have the same width.
    output_names:
        Optional names for the output bits (defaults to ``out_<k>``).

    State 0 is the state entered on reset (:data:`RESET_STATE`).
    """

    name: str
    num_states: int
    next_state: List[int]
    outputs: List[Tuple[int, ...]]
    output_names: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError(f"FSM needs at least one state, got {self.num_states}")
        if len(self.next_state) != self.num_states:
            raise ValueError(
                f"next_state has {len(self.next_state)} entries for "
                f"{self.num_states} states"
            )
        for i, target in enumerate(self.next_state):
            if not (0 <= target < self.num_states):
                raise ValueError(f"state {i} transitions to invalid state {target}")
        if len(self.outputs) != self.num_states:
            raise ValueError(
                f"outputs has {len(self.outputs)} entries for {self.num_states} states"
            )
        widths = {len(v) for v in self.outputs}
        if len(widths) > 1:
            raise ValueError(f"inconsistent output widths: {sorted(widths)}")
        if not self.output_names:
            self.output_names = [f"out_{k}" for k in range(self.output_width)]
        elif len(self.output_names) != self.output_width:
            raise ValueError(
                f"{len(self.output_names)} output names for {self.output_width} outputs"
            )

    # ------------------------------------------------------------ properties
    @property
    def output_width(self) -> int:
        """Number of Moore output bits."""
        return len(self.outputs[0]) if self.outputs else 0

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_select_sequence(
        cls,
        sequence: Sequence[int],
        num_lines: Optional[int] = None,
        name: str = "fsm_select",
    ) -> "FiniteStateMachine":
        """Build the cyclic FSM producing one-hot select lines for ``sequence``.

        One state is created per sequence position (exactly the construction
        the paper describes: "for a repetitive address sequence of length N,
        an FSM with N states is required").
        """
        if not sequence:
            raise ValueError("sequence must be non-empty")
        if num_lines is None:
            num_lines = max(sequence) + 1
        if min(sequence) < 0 or max(sequence) >= num_lines:
            raise ValueError("sequence values outside select-line range")
        n = len(sequence)
        outputs = [
            tuple(1 if line == address else 0 for line in range(num_lines))
            for address in sequence
        ]
        return cls(
            name=name,
            num_states=n,
            next_state=[(i + 1) % n for i in range(n)],
            outputs=outputs,
            output_names=[f"sel_{k}" for k in range(num_lines)],
        )

    @classmethod
    def from_two_hot_sequence(
        cls,
        rows: Sequence[int],
        cols: Sequence[int],
        num_rows: int,
        num_cols: int,
        name: str = "fsm_two_hot",
    ) -> "FiniteStateMachine":
        """Build the cyclic FSM producing two-hot (row + column) select lines."""
        if len(rows) != len(cols):
            raise ValueError("row and column sequences must have equal length")
        if not rows:
            raise ValueError("sequence must be non-empty")
        n = len(rows)
        outputs = []
        # Each vector is one all-zero row+column vector with two hot bits.
        zeros = (0,) * (num_rows + num_cols)
        for r, c in zip(rows, cols):
            if not (0 <= r < num_rows) or not (0 <= c < num_cols):
                raise ValueError(f"address ({r},{c}) outside {num_rows}x{num_cols} array")
            hot_c = num_rows + c
            outputs.append(
                zeros[:r] + (1,) + zeros[r + 1:hot_c] + (1,) + zeros[hot_c + 1:]
            )
        names = [f"rs_{k}" for k in range(num_rows)] + [f"cs_{k}" for k in range(num_cols)]
        return cls(
            name=name,
            num_states=n,
            next_state=[(i + 1) % n for i in range(n)],
            outputs=outputs,
            output_names=names,
        )

    # ------------------------------------------------------------- behaviour
    def simulate(self, steps: int, *, advance: bool = True) -> List[Tuple[int, ...]]:
        """Return the output vectors observed over ``steps`` clock cycles."""
        state = RESET_STATE
        observed: List[Tuple[int, ...]] = []
        for _ in range(steps):
            observed.append(self.outputs[state])
            if advance:
                state = self.next_state[state]
        return observed
