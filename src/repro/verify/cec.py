"""Combinational and sequential equivalence checking (CEC) between netlists.

The construction is the classic miter used by ABC/yosys ``sat``/``equiv``:
both netlists are Tseitin-encoded into one CNF with shared input-port
variables, a difference flag is attached to every matched output pair, and
the solver is asked for a model raising some flag.  UNSAT is a proof of
equivalence; SAT yields a candidate counterexample.

Sequential designs are handled by *register correspondence induction*: the
optimization pipeline (PR 3/PR 5) preserves cell and net names, so flops are
matched by name, both fabrics are evaluated on a shared symbolic state, and
the solver proves that from any agreeing state the outputs agree and the
next states agree again.  Both simulators reset every flop to 0, so the base
case is trivial and an UNSAT induction step is a full equivalence proof --
over a superset of the reachable states, which is sound.  When induction
does not apply (flop sets differ) or returns a possibly-unreachable
counterexample, the checker falls back to bounded unrolling (BMC) from the
all-zero reset state.

Two defences keep the verdict trustworthy:

* *SAT sweeping*: before the final miter query, internal nets that exist in
  both designs under the same name are proved equal (cheap, effort-bounded
  queries) and merged, so the closing proof is local and fast even on the
  full workload grid.
* *Counterexample replay*: a claimed difference is only ever reported after
  it has been replayed on the reference :class:`~repro.hdl.simulator
  .Simulator` and observed as a real output mismatch.  A solver or encoder
  bug can therefore never produce a false "inequivalent" -- it raises
  :class:`VerificationError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.obs import metrics, span

from .cnf import CnfBuilder, encode_flop_next, encode_netlist

__all__ = [
    "VerificationError",
    "Counterexample",
    "CecResult",
    "check_equivalence",
]

# Effort bound for individual sweeping queries; a limit hit just skips the
# merge, it never affects soundness of the final verdict.
_SWEEP_CONFLICT_LIMIT = 2_000

#: Cycles the BMC fallback unrolls when register-correspondence induction
#: fails.
BMC_BOUND = 8


class VerificationError(Exception):
    """An internal solver/encoder inconsistency (never a design property)."""


@dataclass
class Counterexample:
    """A replayed, confirmed difference between two netlists.

    ``inputs`` holds one ``{port: bit}`` assignment per cycle (a single
    entry for combinational designs).  The mismatch was observed on the
    reference simulator at ``cycle`` on output ``port``.
    """

    inputs: List[Dict[str, int]]
    cycle: int
    port: str
    golden_value: int
    revised_value: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "inputs": [dict(sorted(a.items())) for a in self.inputs],
            "cycle": self.cycle,
            "port": self.port,
            "golden_value": self.golden_value,
            "revised_value": self.revised_value,
        }

    def describe(self) -> str:
        stimulus = "; ".join(
            "cycle {}: {}".format(
                t, " ".join(f"{k}={v}" for k, v in sorted(a.items())) or "-"
            )
            for t, a in enumerate(self.inputs)
        )
        return (
            f"output {self.port} differs at cycle {self.cycle} "
            f"(golden={self.golden_value}, revised={self.revised_value}) "
            f"under stimulus [{stimulus}]"
        )


@dataclass
class CecResult:
    """Outcome of an equivalence check.

    ``equivalent`` is the verdict; ``proven`` distinguishes a formal proof
    (combinational miter or induction) from a bounded-only answer (BMC
    exhausted its unrolling depth without finding a difference).  A
    ``False`` verdict always carries a simulator-replayed
    :class:`Counterexample`.
    """

    equivalent: bool
    proven: bool
    method: str
    bound: int = 0
    counterexample: Optional[Counterexample] = None
    note: str = ""
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "equivalent": self.equivalent,
            "proven": self.proven,
            "method": self.method,
            "bound": self.bound,
            "note": self.note,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
            "stats": dict(self.stats),
        }

    def summary(self) -> str:
        if not self.equivalent:
            assert self.counterexample is not None
            return f"NOT equivalent ({self.method}): {self.counterexample.describe()}"
        strength = "proven" if self.proven else f"bounded to {self.bound} cycles"
        detail = f"; {self.note}" if self.note else ""
        return (
            f"equivalent ({self.method}, {strength}; "
            f"{self.stats.get('vars', 0)} vars, "
            f"{self.stats.get('clauses', 0)} clauses, "
            f"{self.stats.get('merged_nets', 0)} nets merged){detail}"
        )


def check_equivalence(golden: Netlist, revised: Netlist) -> CecResult:
    """Check that ``revised`` implements the same function as ``golden``.

    Netlists are matched by port name (input and output port sets must be
    identical, or :class:`ValueError` is raised).  Purely combinational
    pairs get a direct miter proof; sequential pairs get register-
    correspondence induction with a :data:`BMC_BOUND`-cycle BMC fallback.
    """
    golden.validate()
    revised.validate()
    if set(golden.inputs) != set(revised.inputs):
        raise ValueError(
            "input ports differ: "
            f"{sorted(golden.inputs)} vs {sorted(revised.inputs)}"
        )
    if set(golden.outputs) != set(revised.outputs):
        raise ValueError(
            "output ports differ: "
            f"{sorted(golden.outputs)} vs {sorted(revised.outputs)}"
        )
    with span("verify.cec", detail=golden.name):
        if golden.sequential_cells() or revised.sequential_cells():
            result = _check_sequential(golden, revised)
        else:
            result = _check_combinational(golden, revised)
    metrics.incr("verify.cec.checks")
    if not result.equivalent:
        metrics.incr("verify.cec.inequivalent")
    return result


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _shared_input_lits(
    builder: CnfBuilder, golden: Netlist, revised: Netlist
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """One variable per input *port*, seeded into both net-lit maps."""
    port_lits = {port: builder.new_var() for port in sorted(golden.inputs)}
    golden_seed = {golden.inputs[p].name: lit for p, lit in port_lits.items()}
    revised_seed = {revised.inputs[p].name: lit for p, lit in port_lits.items()}
    return port_lits, golden_seed, revised_seed


def _canon(table: Dict[int, int], lit: int) -> int:
    """Canonical representative of ``lit`` under the merge substitution."""
    while lit in table:
        lit = table[lit]
    return lit


def _sweep(
    builder: CnfBuilder,
    golden: Netlist,
    golden_lits: Dict[str, int],
    revised: Netlist,
    revised_lits: Dict[str, int],
    canon: Dict[int, int],
) -> int:
    """Prove and merge same-named internal nets; return the merge count.

    Works in the golden netlist's topological order so each query sits on
    top of already-merged fanin, keeping the solver's work local.  Most
    pairs merge *deductively*: when the two drivers are the same cell type
    over pairwise-merged input literals, both Tseitin blocks define the
    same function of the same literals, so equality is a logical
    consequence and no solve is needed (this makes an O0-vs-buffered sweep
    SAT-free).  Structurally changed nets fall back to an effort-bounded
    SAT query; an unanswered query simply skips the merge.

    ``canon`` is the caller's literal-substitution table; every entry added
    to it is an equality already entailed by the clause database, so callers
    may use it to drop provably-equal miter pairs without solving.
    """
    merged = 0

    # Buffers are transparent to canonicalization: a BUF's Tseitin clauses
    # already force its output literal equal to its input literal, so chasing
    # through them costs nothing and lets cells whose pins were rewired onto
    # inserted buffer trees still match their pre-buffering counterparts.
    for netlist, lits in ((golden, golden_lits), (revised, revised_lits)):
        for cell in netlist.topological_combinational_order():
            if cell.cell_type != "BUF":
                continue
            out_lit = lits.get(cell.pins["Y"].name)
            in_lit = lits.get(cell.pins["A"].name)
            if out_lit is None or in_lit is None or out_lit == in_lit:
                continue
            canon[out_lit] = in_lit
            canon[-out_lit] = -in_lit

    def merge(g_lit: int, r_lit: int) -> None:
        builder.assert_equal(g_lit, r_lit)
        canon[r_lit] = g_lit
        canon[-r_lit] = -g_lit

    def structurally_equal(g_cell, net_name: str) -> bool:
        r_net = revised.nets.get(net_name)
        if r_net is None or r_net.driver is None:
            return False
        r_cell, _ = r_net.driver
        if r_cell.cell_type != g_cell.cell_type:
            return False
        for pin in g_cell.spec.inputs:
            g_in = golden_lits.get(g_cell.pins[pin].name)
            r_in = revised_lits.get(r_cell.pins[pin].name)
            if g_in is None or r_in is None:
                return False
            if _canon(canon, g_in) != _canon(canon, r_in):
                return False
        return True

    for cell in golden.topological_combinational_order():
        net_name = cell.pins[cell.spec.outputs[0]].name
        g_lit = golden_lits.get(net_name)
        r_lit = revised_lits.get(net_name)
        if g_lit is None or r_lit is None or g_lit == r_lit:
            continue
        if _canon(canon, g_lit) == _canon(canon, r_lit):
            merged += 1  # already equal through earlier merges
            continue
        if structurally_equal(cell, net_name):
            merge(g_lit, r_lit)
            merged += 1
            continue
        diff = builder.xor_lit(g_lit, r_lit)
        verdict = builder.solver.solve(
            [diff], conflict_limit=_SWEEP_CONFLICT_LIMIT
        )
        if verdict is False:
            merge(g_lit, r_lit)
            merged += 1
    return merged


def _merge_matched_flops(
    builder: CnfBuilder,
    canon: Dict[int, int],
    matched: List[str],
    golden_flops: Dict[str, object],
    revised_flops: Dict[str, object],
    golden_lits: Dict[str, int],
    revised_lits: Dict[str, int],
    next_g: Dict[str, int],
    next_r: Dict[str, int],
) -> None:
    """Deductively merge next-state literals of identically-wired flops.

    When a name-matched flop pair has the same cell type and every non-CLK
    input (plus the shared ``Q`` state) sits on canonically-merged
    literals, both next-state encodings tabulate the same function of the
    same literals, so their output literals are equal by construction --
    mirroring the combinational sweep's structural merge."""
    for name in matched:
        g_flop = golden_flops[name]
        r_flop = revised_flops[name]
        if g_flop.cell_type != r_flop.cell_type:
            continue
        pins = [p for p in g_flop.spec.inputs if p != "CLK"] + ["Q"]
        if all(
            _canon(canon, golden_lits[g_flop.pins[p].name])
            == _canon(canon, revised_lits[r_flop.pins[p].name])
            for p in pins
        ):
            builder.assert_equal(next_g[name], next_r[name])
            canon[next_r[name]] = next_g[name]
            canon[-next_r[name]] = -next_g[name]


def _miter_query(
    builder: CnfBuilder,
    pairs: List[Tuple[int, int]],
    canon: Dict[int, int],
) -> Optional[bool]:
    """SAT query "some pair differs"; ``False`` proves all pairs equal.

    Pairs whose literals are canonically merged are already equal in every
    model (their equality clauses are in the database), so they get no
    difference flag -- without this the closing solve rediscovers each
    merged pair's equality through one learned conflict apiece."""
    flags = [
        builder.xor_lit(a, b)
        for a, b in pairs
        if _canon(canon, a) != _canon(canon, b)
    ]
    if not flags:
        return False
    gate = builder.new_var()
    builder.add(-gate, *flags)
    return builder.solver.solve([gate])


def _model_inputs(
    builder: CnfBuilder, port_lits: Dict[str, int]
) -> Dict[str, int]:
    model = builder.solver.model
    return {port: int(model.get(lit, False)) for port, lit in port_lits.items()}


def _replay(
    golden: Netlist, revised: Netlist, stimulus: List[Dict[str, int]]
) -> Optional[Counterexample]:
    """Run the stimulus on both reference simulators; return the first
    observed output mismatch, or ``None`` when the designs agree on it."""
    sim_g = Simulator(golden)
    sim_r = Simulator(revised)
    for cycle, assignment in enumerate(stimulus):
        for port, value in assignment.items():
            sim_g.poke(port, value)
            sim_r.poke(port, value)
        sim_g.settle()
        sim_r.settle()
        for port in sorted(golden.outputs):
            got_g = sim_g.peek(golden.outputs[port])
            got_r = sim_r.peek(revised.outputs[port])
            if got_g != got_r:
                return Counterexample(
                    inputs=stimulus[: cycle + 1],
                    cycle=cycle,
                    port=port,
                    golden_value=got_g,
                    revised_value=got_r,
                )
        sim_g.step()
        sim_r.step()
    return None


def _confirmed(
    golden: Netlist,
    revised: Netlist,
    stimulus: List[Dict[str, int]],
    method: str,
    bound: int,
    stats: Dict[str, int],
) -> CecResult:
    cex = _replay(golden, revised, stimulus)
    if cex is None:
        raise VerificationError(
            f"{method} produced a counterexample that does not replay on the "
            "reference simulator; refusing to report inequivalence"
        )
    return CecResult(
        equivalent=False,
        proven=True,
        method=method,
        bound=bound,
        counterexample=cex,
        stats=stats,
    )


def _snapshot_stats(builder: CnfBuilder, merged: int) -> Dict[str, int]:
    solver = builder.solver
    return {
        "vars": solver.num_vars,
        "clauses": solver.clause_count,
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "merged_nets": merged,
    }


# ---------------------------------------------------------------------------
# Combinational
# ---------------------------------------------------------------------------

def _check_combinational(golden: Netlist, revised: Netlist) -> CecResult:
    builder = CnfBuilder()
    port_lits, golden_seed, revised_seed = _shared_input_lits(
        builder, golden, revised
    )
    golden_lits = encode_netlist(builder, golden, golden_seed)
    revised_lits = encode_netlist(builder, revised, revised_seed)
    canon: Dict[int, int] = {}
    merged = _sweep(builder, golden, golden_lits, revised, revised_lits, canon)
    pairs = [
        (golden_lits[golden.outputs[p].name], revised_lits[revised.outputs[p].name])
        for p in sorted(golden.outputs)
    ]
    verdict = _miter_query(builder, pairs, canon)
    stats = _snapshot_stats(builder, merged)
    if verdict is False:
        return CecResult(
            equivalent=True, proven=True, method="comb-miter", stats=stats
        )
    stimulus = [_model_inputs(builder, port_lits)]
    return _confirmed(golden, revised, stimulus, "comb-miter", 0, stats)


# ---------------------------------------------------------------------------
# Sequential: induction over register correspondence, BMC fallback
# ---------------------------------------------------------------------------

def _induction_step(golden: Netlist, revised: Netlist) -> Tuple[Optional[bool], Dict[str, int]]:
    """Prove the induction step; returns (miter verdict, stats).

    A shared variable per name-matched flop models "both designs are in the
    same state"; flops private to one side stay free, which over-
    approximates that side's behaviour and keeps UNSAT sound.
    """
    builder = CnfBuilder()
    _, golden_seed, revised_seed = _shared_input_lits(builder, golden, revised)
    golden_flops = {c.name: c for c in golden.sequential_cells()}
    revised_flops = {c.name: c for c in revised.sequential_cells()}
    matched = sorted(set(golden_flops) & set(revised_flops))
    for name in matched:
        state = builder.new_var()
        golden_seed[golden_flops[name].pins["Q"].name] = state
        revised_seed[revised_flops[name].pins["Q"].name] = state
    golden_lits = encode_netlist(builder, golden, golden_seed)
    revised_lits = encode_netlist(builder, revised, revised_seed)
    canon: Dict[int, int] = {}
    merged = _sweep(builder, golden, golden_lits, revised, revised_lits, canon)
    next_g = encode_flop_next(builder, golden, golden_lits)
    next_r = encode_flop_next(builder, revised, revised_lits)
    _merge_matched_flops(
        builder, canon, matched, golden_flops, revised_flops,
        golden_lits, revised_lits, next_g, next_r,
    )
    pairs = [
        (golden_lits[golden.outputs[p].name], revised_lits[revised.outputs[p].name])
        for p in sorted(golden.outputs)
    ]
    pairs.extend((next_g[name], next_r[name]) for name in matched)
    verdict = _miter_query(builder, pairs, canon)
    return verdict, _snapshot_stats(builder, merged)


def _check_sequential(golden: Netlist, revised: Netlist) -> CecResult:
    verdict, stats = _induction_step(golden, revised)
    if verdict is False:
        return CecResult(
            equivalent=True, proven=True, method="induction", stats=stats
        )
    # The induction counterexample may start from an unreachable state, so
    # it is never reported directly; fall back to bounded model checking
    # from the real (all-zero) reset state.
    return _bmc(golden, revised, note="induction step failed")


def _bmc(golden: Netlist, revised: Netlist, *, note: str) -> CecResult:
    builder = CnfBuilder()
    zero = builder.false_lit()
    golden_flops = {c.name: c for c in golden.sequential_cells()}
    revised_flops = {c.name: c for c in revised.sequential_cells()}
    matched = sorted(set(golden_flops) & set(revised_flops))
    state_g = {name: zero for name in golden_flops}
    state_r = {name: zero for name in revised_flops}
    cycle_ports: List[Dict[str, int]] = []
    diff_flags: List[int] = []
    merged = 0
    canon: Dict[int, int] = {}
    for _ in range(BMC_BOUND):
        port_lits, golden_seed, revised_seed = _shared_input_lits(
            builder, golden, revised
        )
        cycle_ports.append(port_lits)
        for name, cell in golden_flops.items():
            golden_seed[cell.pins["Q"].name] = state_g[name]
        for name, cell in revised_flops.items():
            revised_seed[cell.pins["Q"].name] = state_r[name]
        golden_lits = encode_netlist(builder, golden, golden_seed)
        revised_lits = encode_netlist(builder, revised, revised_seed)
        merged += _sweep(builder, golden, golden_lits, revised, revised_lits, canon)
        for port in sorted(golden.outputs):
            g_lit = golden_lits[golden.outputs[port].name]
            r_lit = revised_lits[revised.outputs[port].name]
            if _canon(canon, g_lit) != _canon(canon, r_lit):
                diff_flags.append(builder.xor_lit(g_lit, r_lit))
        state_g = encode_flop_next(builder, golden, golden_lits)
        state_r = encode_flop_next(builder, revised, revised_lits)
        _merge_matched_flops(
            builder, canon, matched, golden_flops, revised_flops,
            golden_lits, revised_lits, state_g, state_r,
        )
    gate = builder.new_var()
    builder.add(-gate, *diff_flags)
    verdict = builder.solver.solve([gate])
    stats = _snapshot_stats(builder, merged)
    if verdict is False:
        return CecResult(
            equivalent=True,
            proven=False,
            method="bmc",
            bound=BMC_BOUND,
            note=note,
            stats=stats,
        )
    stimulus = [_model_inputs(builder, ports) for ports in cycle_ports]
    return _confirmed(golden, revised, stimulus, "bmc", BMC_BOUND, stats)
