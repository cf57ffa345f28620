"""State encodings for symbolic FSM synthesis.

The paper synthesises its Section 3 baseline with the synthesis tool's
default *binary* (minimum-length) encoding, and contrasts it with the
shift-register solution which is effectively a one-hot (or, for the 2-D SRAG,
two-hot) encoding in disguise.  Gray and one-hot are provided beside it so the
design space can be explored beyond the paper's single point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = ["StateEncoding", "ENCODINGS", "encoding_by_name"]


@dataclass(frozen=True)
class StateEncoding:
    """A state-assignment strategy.

    Attributes
    ----------
    name:
        Encoding name (``"binary"``, ``"gray"``, ``"onehot"``).
    width_fn:
        Maps the number of states to the number of state bits.
    encode_fn:
        Maps ``(state_index, num_states)`` to the code as an integer whose
        bit ``i`` is state bit ``i``.
    """

    name: str
    width_fn: Callable[[int], int]
    encode_fn: Callable[[int, int], int]

    def width(self, num_states: int) -> int:
        """Number of state register bits for ``num_states`` states."""
        if num_states < 1:
            raise ValueError(f"num_states must be >= 1, got {num_states}")
        return self.width_fn(num_states)

    def encode(self, state: int, num_states: int) -> int:
        """Code of ``state`` as an integer."""
        if not (0 <= state < num_states):
            raise ValueError(f"state {state} outside 0..{num_states - 1}")
        return self.encode_fn(state, num_states)

    def codes(self, num_states: int) -> List[int]:
        """Codes of every state, in state order."""
        return [self.encode(s, num_states) for s in range(num_states)]

    def code_bits(self, state: int, num_states: int) -> Tuple[int, ...]:
        """Code of ``state`` as a bit tuple, LSB first."""
        code = self.encode(state, num_states)
        return tuple((code >> i) & 1 for i in range(self.width(num_states)))


def _binary_width(num_states: int) -> int:
    return max(1, (num_states - 1).bit_length())


def _gray_encode(state: int, _num_states: int) -> int:
    return state ^ (state >> 1)


def _onehot_width(num_states: int) -> int:
    return num_states


def _onehot_encode(state: int, _num_states: int) -> int:
    return 1 << state


ENCODINGS: Dict[str, StateEncoding] = {
    "binary": StateEncoding("binary", _binary_width, lambda s, n: s),
    "gray": StateEncoding("gray", _binary_width, _gray_encode),
    "onehot": StateEncoding("onehot", _onehot_width, _onehot_encode),
}


def encoding_by_name(name: str) -> StateEncoding:
    """Look up an encoding by name, raising ``KeyError`` with suggestions."""
    try:
        return ENCODINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown state encoding {name!r}; available: {sorted(ENCODINGS)}"
        ) from None
