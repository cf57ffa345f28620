"""Symbolic FSM synthesis.

Elaborates a :class:`~repro.synth.fsm.fsm.FiniteStateMachine` into a netlist:
a state register (with clock-enable on the ``next`` input and synchronous
reset to the initial state), two-level minimised next-state logic, and
two-level minimised Moore output logic.  This reproduces the "symbolic state
machine" baseline the paper hands to Design Compiler in Section 3, including
the effort blow-up: the minimiser is generic and treats every next-state and
output bit as an arbitrary Boolean function of the state bits.

For one-hot encodings (where truth-table enumeration over the state bits is
impossible) a structural path is used instead: each state flip-flop's next
value is the OR of its predecessors, and each output is the OR of the states
that assert it.  This is the construction a human designer would write down,
and is essentially what the paper's shift register implements for cyclic
sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.hdl.components.gates import build_or_tree
from repro.hdl.netlist import Net, Netlist
from repro.synth.fsm.encoding import encoding_by_name
from repro.synth.fsm.fsm import FiniteStateMachine
from repro.synth.logic.minimize import MinimizationStats, minimize
from repro.synth.logic.synthesize import sop_to_netlist
from repro.synth.logic.truth_table import TruthTable

__all__ = ["FsmSynthesisResult", "next_state_tables", "synthesize_fsm"]

#: Widest state register for which truth-table based synthesis is attempted.
MAX_TABLE_WIDTH = 16


@dataclass
class FsmSynthesisResult:
    """Outcome of synthesising one FSM.

    Attributes
    ----------
    netlist:
        The elaborated netlist (inputs ``clk``, ``next``, ``reset``; one
        output port per FSM output bit).
    fsm:
        The machine that was synthesised.
    encoding_name:
        State encoding used.
    state_width:
        Number of state flip-flops.
    stats:
        Aggregated logic-minimisation effort over all next-state and output
        functions (zeroed for the structural one-hot path).
    synthesis_seconds:
        Wall-clock time spent elaborating, a proxy for the paper's
        synthesis-runtime comparison.
    structural:
        ``True`` when the structural (non-minimised) one-hot path was used.
    """

    netlist: Netlist
    fsm: FiniteStateMachine
    encoding_name: str
    state_width: int
    stats: MinimizationStats = field(default_factory=MinimizationStats)
    synthesis_seconds: float = 0.0
    structural: bool = False


def next_state_tables(
    fsm: FiniteStateMachine, encoding: str = "binary"
) -> List[TruthTable]:
    """The per-state-bit next-state truth tables synthesis minimises.

    One table per state bit: the on-set holds the codes of the states whose
    successor asserts that bit, and every unused code is a don't-care.  This
    is the exact workload :func:`synthesize_fsm` hands to the minimiser, and
    the single definition the regression tests use.
    """
    enc = encoding_by_name(encoding)
    width = enc.width(fsm.num_states)
    codes = enc.codes(fsm.num_states)
    return _next_state_tables(fsm, width, codes, _unused_codes(width, codes))


def _unused_codes(width: int, codes: Sequence[int]) -> FrozenSet[int]:
    """Every ``width``-bit code no state uses: the tables' don't-care set."""
    used = set(codes)
    return frozenset(c for c in range(1 << width) if c not in used)


def _next_state_tables(
    fsm: FiniteStateMachine, width: int, codes: Sequence[int], dc_set: FrozenSet[int]
) -> List[TruthTable]:
    next_codes = [codes[target] for target in fsm.next_state]
    return [
        TruthTable(
            num_inputs=width,
            on_set=frozenset(
                codes[s] for s in range(fsm.num_states) if (next_codes[s] >> bit) & 1
            ),
            dc_set=dc_set,
        )
        for bit in range(width)
    ]


def synthesize_fsm(
    fsm: FiniteStateMachine,
    *,
    encoding: str = "binary",
    name: Optional[str] = None,
) -> FsmSynthesisResult:
    """Synthesise ``fsm`` with the given state ``encoding``.

    Parameters
    ----------
    encoding:
        One of ``"binary"``, ``"gray"``, ``"onehot"``.

    Raises
    ------
    ValueError
        If a ``"binary"`` or ``"gray"`` state register would be wider than
        :data:`MAX_TABLE_WIDTH` bits (its truth tables cannot be enumerated).
    """
    start = time.perf_counter()
    enc = encoding_by_name(encoding)
    width = enc.width(fsm.num_states)
    codes = enc.codes(fsm.num_states)
    if len(set(codes)) != len(codes):
        raise ValueError(
            f"encoding {encoding!r} does not give distinct codes for "
            f"{fsm.num_states} states"
        )
    if encoding != "onehot" and width > MAX_TABLE_WIDTH:
        raise ValueError(
            f"{encoding} encoding of {fsm.num_states} states needs {width} "
            f"state bits; truth-table synthesis stops at {MAX_TABLE_WIDTH}"
        )

    netlist = Netlist(name or f"{fsm.name}_{encoding}")
    clk = netlist.add_input("clk")
    advance = netlist.add_input("next")
    reset = netlist.add_input("reset")

    if encoding == "onehot":
        result = _synthesize_structural_onehot(netlist, fsm, clk, advance, reset)
        elapsed = time.perf_counter() - start
        return FsmSynthesisResult(
            netlist=netlist,
            fsm=fsm,
            encoding_name=encoding,
            state_width=width,
            stats=result,
            synthesis_seconds=elapsed,
            structural=True,
        )

    # State register output nets.
    state_bits = [netlist.new_net(f"state_{b}_") for b in range(width)]

    dc_codes = _unused_codes(width, codes)

    total_stats = MinimizationStats()
    inverter_cache: Dict[str, Net] = {}

    # Next-state logic: one Boolean function of the state bits per state bit.
    next_nets: List[Net] = []
    for bit, table in enumerate(_next_state_tables(fsm, width, codes, dc_codes)):
        cover, stats = minimize(table)
        total_stats = total_stats + stats
        next_nets.append(
            sop_to_netlist(
                netlist,
                cover,
                state_bits,
                prefix=f"ns{bit}",
                inverter_cache=inverter_cache,
            )
        )

    # Moore output logic: one Boolean function of the state bits per output.
    for k, out_name in enumerate(fsm.output_names):
        on_set = frozenset(
            codes[s] for s in range(fsm.num_states) if fsm.outputs[s][k]
        )
        table = TruthTable(num_inputs=width, on_set=on_set, dc_set=dc_codes)
        cover, stats = minimize(table)
        total_stats = total_stats + stats
        out_net = sop_to_netlist(
            netlist,
            cover,
            state_bits,
            prefix=f"out{k}",
            inverter_cache=inverter_cache,
        )
        netlist.add_output(out_name, out_net)

    # State register with enable on `next` and synchronous reset to the
    # initial state's code (set for 1-bits, reset for 0-bits).
    initial_code = codes[fsm.initial_state]
    for bit in range(width):
        starts_high = bool((initial_code >> bit) & 1)
        netlist.add_cell(
            "DFF_EN_SET" if starts_high else "DFF_EN_RST",
            name=f"state_ff{bit}",
            D=next_nets[bit],
            CLK=clk,
            EN=advance,
            Q=state_bits[bit],
            **{"SET" if starts_high else "RST": reset},
        )

    elapsed = time.perf_counter() - start
    return FsmSynthesisResult(
        netlist=netlist,
        fsm=fsm,
        encoding_name=encoding,
        state_width=width,
        stats=total_stats,
        synthesis_seconds=elapsed,
        structural=False,
    )


def _synthesize_structural_onehot(
    netlist: Netlist,
    fsm: FiniteStateMachine,
    clk: Net,
    advance: Net,
    reset: Net,
) -> MinimizationStats:
    """One-hot structural synthesis (no truth tables).

    State flip-flop ``j`` is set on reset when ``j`` is the initial state and
    loads the OR of its predecessor states' outputs when ``next`` is high.
    """
    n = fsm.num_states
    state_bits = [netlist.new_net(f"state_{j}_") for j in range(n)]

    predecessors: Dict[int, List[int]] = {j: [] for j in range(n)}
    for i, target in enumerate(fsm.next_state):
        predecessors[target].append(i)

    for j in range(n):
        preds = predecessors[j]
        if not preds:
            d_net = netlist.const(0)
        elif len(preds) == 1:
            d_net = state_bits[preds[0]]
        else:
            d_net = build_or_tree(
                netlist, [state_bits[i] for i in preds], prefix=f"ns{j}_or"
            )
        is_initial = j == fsm.initial_state
        netlist.add_cell(
            "DFF_EN_SET" if is_initial else "DFF_EN_RST",
            name=f"state_ff{j}",
            D=d_net,
            CLK=clk,
            EN=advance,
            Q=state_bits[j],
            **{"SET" if is_initial else "RST": reset},
        )

    for k, out_name in enumerate(fsm.output_names):
        asserting = [s for s in range(n) if fsm.outputs[s][k]]
        if not asserting:
            out_net = netlist.const(0)
        elif len(asserting) == 1:
            out_net = state_bits[asserting[0]]
        else:
            out_net = build_or_tree(
                netlist, [state_bits[s] for s in asserting], prefix=f"out{k}_or"
            )
        netlist.add_output(out_name, out_net)
    return MinimizationStats()
