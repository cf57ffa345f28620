"""Design-rule checker over the :class:`~repro.hdl.netlist.Netlist` IR.

``Netlist.validate()`` raises on the first missing driver; this module is the
reporting counterpart: it walks the whole structure, collects *every*
violation as a :class:`~repro.lint.core.Finding` and never mutates or raises.
That makes it safe to run on the flow's working copy after optimization and
buffering -- the netlists whose area/delay numbers the paper figures quote --
and on raw generated netlists in tests.

Rule catalogue (ids are stable; see README "Static analysis"):

========================  ========  ==================================================
id                        severity  catches
========================  ========  ==================================================
``design.comb-loop``      error     combinational cycles (simulation order undefined)
``design.undriven-net``   error     cell input or output port fed by an undriven net
``design.multi-driven``   error     net driven by >1 output pin (or pin + input port)
``design.floating-input`` error     unconnected declared pin / pin bound to a stale
                                    net object no longer in the netlist's tables
``design.dangling-net``   warning   net with no driver, no loads and no port role
                                    (rewrite debris ``prune_dangling_nets`` removes)
``design.unknown-cell``   error     cell type the active library cannot characterise
``design.fanout-limit``   warning   net whose data fanout exceeds the buffering limit
``design.missing-clock``  error     flip-flop whose CLK pin is absent or undriven
``design.data-on-clk``    error     cell-driven (data) net loading a flop's CLK pin
========================  ========  ==================================================

At lint level >= 2 two SAT-backed semantic rules join in (they prove
properties with the :mod:`repro.verify` solver, so they cost real time):

==============================  ========  ========================================
id                              severity  catches
==============================  ========  ========================================
``design.sat-const-net``        warning   non-tie cell output provably constant
``design.sat-redundant-logic``  info      cells provably computing equal functions
==============================  ========  ========================================

Raw generated netlists routinely carry *driven-but-unused* nets (carry-outs
of the MSB adder stage, spare constants); those are dead logic for the DCE
pass, not structural faults, so no rule flags them -- the clean-sweep
invariant (zero findings on every registered style x workload) holds at O0
and O1 alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.hdl.netlist import Cell, Net, Netlist
from repro.hdl.primitives import PRIMITIVES
from repro.lint.core import (
    ERROR,
    INFO,
    WARNING,
    Finding,
    LintReport,
    Rule,
)
from repro.obs import metrics, span

__all__ = [
    "DESIGN_RULES",
    "SAT_DESIGN_RULES",
    "DesignContext",
    "DesignRule",
    "lint_netlist",
    "rules_for_level",
]


@dataclass
class DesignContext:
    """Everything a design rule may inspect.

    ``library``/``max_fanout`` gate the rules that need them (no library ->
    no characterisation check).
    """

    netlist: Netlist
    library: Optional[object] = None
    max_fanout: Optional[int] = None

    def location(self, element: str) -> str:
        """Finding location string ``<netlist>.<element>``."""
        return f"{self.netlist.name}.{element}"


class DesignRule(Rule):
    """A rule over one :class:`DesignContext`."""

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        raise NotImplementedError


def _known_spec(cell: Cell):
    """``cell.spec`` or ``None`` for cell types outside ``PRIMITIVES``.

    Broken-fixture cells (and hypothetical future imports) may carry types
    the primitive table does not know; rules that need the pin declaration
    skip those and leave the reporting to :class:`UnknownCellRule`.
    """
    return PRIMITIVES.get(cell.cell_type)


def _is_clk_load(cell: Cell, pin: str) -> bool:
    spec = _known_spec(cell)
    return pin == "CLK" and spec is not None and spec.sequential


class CombLoopRule(DesignRule):
    id = "design.comb-loop"
    severity = ERROR
    description = "combinational cycle (no valid evaluation order exists)"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        # Same Kahn levelisation as topological_combinational_order, but
        # reporting the leftover (cyclic) cells instead of raising.
        comb = [
            c for c in ctx.netlist.cells.values()
            if (spec := _known_spec(c)) is not None and not spec.sequential
        ]
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[Cell]] = {}
        for cell in comb:
            count = 0
            for net in cell.input_nets().values():
                driver = net.driver
                if driver is None:
                    continue
                driver_cell, _ = driver
                driver_spec = _known_spec(driver_cell)
                if driver_spec is not None and not driver_spec.sequential:
                    count += 1
                    dependents.setdefault(driver_cell.name, []).append(cell)
            indegree[cell.name] = count
        ready = [c for c in comb if indegree[c.name] == 0]
        ordered = 0
        while ready:
            cell = ready.pop()
            ordered += 1
            for dep in dependents.get(cell.name, []):
                indegree[dep.name] -= 1
                if indegree[dep.name] == 0:
                    ready.append(dep)
        if ordered == len(comb):
            return
        cyclic = sorted(
            name for name, cell in ((c.name, c) for c in comb)
            if indegree[name] > 0
        )
        yield self.finding(
            f"combinational loop through {len(cyclic)} cell(s): "
            f"{', '.join(cyclic[:6])}{'...' if len(cyclic) > 6 else ''}",
            location=ctx.location(cyclic[0]),
        )


class UndrivenNetRule(DesignRule):
    id = "design.undriven-net"
    severity = ERROR
    description = "cell input or output port fed by a net with no driver"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        for cell in ctx.netlist.cells.values():
            if _known_spec(cell) is None:
                continue  # reported by design.unknown-cell
            for pin, net in cell.input_nets().items():
                if not net.has_driver:
                    yield self.finding(
                        f"net {net.name!r} feeding {cell.name}.{pin} has no driver",
                        location=ctx.location(net.name),
                    )
        for port, net in ctx.netlist.outputs.items():
            if not net.has_driver:
                yield self.finding(
                    f"output port {port!r} net {net.name!r} has no driver",
                    location=ctx.location(net.name),
                )


class MultiDrivenRule(DesignRule):
    id = "design.multi-driven"
    severity = ERROR
    description = "net driven by more than one output pin (or pin + input port)"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        drivers: Dict[int, List[str]] = {}
        nets_by_id: Dict[int, Net] = {}
        for cell in ctx.netlist.cells.values():
            if _known_spec(cell) is None:
                continue  # reported by design.unknown-cell
            for pin, net in cell.output_nets().items():
                drivers.setdefault(id(net), []).append(f"{cell.name}.{pin}")
                nets_by_id[id(net)] = net
        for net_id, pins in sorted(drivers.items(), key=lambda kv: nets_by_id[kv[0]].name):
            net = nets_by_id[net_id]
            if net.is_input:
                yield self.finding(
                    f"input port net {net.name!r} also driven by {pins[0]}",
                    location=ctx.location(net.name),
                )
            if len(pins) > 1:
                yield self.finding(
                    f"net {net.name!r} driven by {len(pins)} pins: {', '.join(sorted(pins))}",
                    location=ctx.location(net.name),
                )


class FloatingInputRule(DesignRule):
    id = "design.floating-input"
    severity = ERROR
    description = "unconnected declared pin, or pin bound to a stale net object"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        table = ctx.netlist.nets
        for cell in ctx.netlist.cells.values():
            spec = _known_spec(cell)
            if spec is not None:
                for pin in (*spec.inputs, *spec.outputs):
                    if pin not in cell.pins:
                        yield self.finding(
                            f"{cell.name}.{pin} ({cell.cell_type}) is unconnected",
                            location=ctx.location(cell.name),
                        )
            for pin, net in cell.pins.items():
                if table.get(net.name) is not net:
                    yield self.finding(
                        f"{cell.name}.{pin} bound to net {net.name!r} that is "
                        "no longer in the netlist (stale after a rewrite)",
                        location=ctx.location(cell.name),
                    )


class DanglingNetRule(DesignRule):
    id = "design.dangling-net"
    severity = WARNING
    description = "net with no driver, no loads and no port role (rewrite debris)"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        # Exactly the prune_dangling_nets criterion: driven-but-unused nets
        # are dead *logic* (DCE's business), not structural debris.
        aliased = {id(net) for net in ctx.netlist.outputs.values()}
        for name, net in ctx.netlist.nets.items():
            if (
                net.driver is None
                and not net.loads
                and not net.is_input
                and id(net) not in aliased
            ):
                yield self.finding(
                    f"net {name!r} has no driver, no loads and no port role; "
                    "prune_dangling_nets() would remove it",
                    location=ctx.location(name),
                )


class UnknownCellRule(DesignRule):
    id = "design.unknown-cell"
    severity = ERROR
    description = "cell type the active cell library cannot characterise"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        for cell in ctx.netlist.cells.values():
            if _known_spec(cell) is None:
                yield self.finding(
                    f"cell {cell.name!r} has unknown primitive type {cell.cell_type!r}",
                    location=ctx.location(cell.name),
                )
            elif ctx.library is not None and cell.cell_type not in ctx.library:
                yield self.finding(
                    f"cell {cell.name!r} type {cell.cell_type!r} is not "
                    f"characterised by library {getattr(ctx.library, 'name', '?')!r}",
                    location=ctx.location(cell.name),
                )


class FanoutLimitRule(DesignRule):
    id = "design.fanout-limit"
    severity = WARNING
    description = "net whose data fanout exceeds the active buffering limit"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        if ctx.max_fanout is None:
            return
        for name, net in ctx.netlist.nets.items():
            fanout = len(net.data_loads())
            if fanout > ctx.max_fanout:
                yield self.finding(
                    f"net {name!r} has data fanout {fanout} > limit {ctx.max_fanout}",
                    location=ctx.location(name),
                )


class MissingClockRule(DesignRule):
    id = "design.missing-clock"
    severity = ERROR
    description = "flip-flop whose CLK pin is absent or fed by an undriven net"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        for cell in ctx.netlist.cells.values():
            spec = _known_spec(cell)
            if spec is None or not spec.sequential:
                continue
            clk = cell.pins.get("CLK")
            if clk is None:
                yield self.finding(
                    f"flip-flop {cell.name!r} has no CLK connection",
                    location=ctx.location(cell.name),
                )
            elif not clk.has_driver:
                yield self.finding(
                    f"flip-flop {cell.name!r} CLK net {clk.name!r} has no driver",
                    location=ctx.location(cell.name),
                )


class DataOnClkRule(DesignRule):
    id = "design.data-on-clk"
    severity = ERROR
    description = "cell-driven (data) net loading a flip-flop's CLK pin"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        # The clock network must come straight from a top-level clock input:
        # timing and power deliberately ignore CLK loads (Net.data_loads), so
        # a gated/derived clock would be silently mis-modelled.
        seen: set = set()
        for cell in ctx.netlist.cells.values():
            for pin, net in cell.pins.items():
                if not _is_clk_load(cell, pin) or net.driver is None:
                    continue
                if id(net) in seen:
                    continue
                seen.add(id(net))
                driver_cell, driver_pin = net.driver
                yield self.finding(
                    f"net {net.name!r} drives CLK of {cell.name!r} but is "
                    f"itself driven by {driver_cell.name}.{driver_pin}; "
                    "clocks must be top-level inputs",
                    location=ctx.location(net.name),
                )


# ---------------------------------------------------------------------------
# SAT-backed semantic rules (lint level >= 2)
# ---------------------------------------------------------------------------

#: Per-query effort bound: an inconclusive query silently produces no
#: finding, so the rules stay sound (never wrong) and bounded (never slow).
_SAT_CONFLICT_LIMIT = 1_000
#: Cap on equality proofs attempted per netlist by the redundancy rule.
_SAT_PAIR_BUDGET = 32
_SIG_WORD = (1 << 64) - 1


def _signature_patterns(names: Sequence[str]) -> Dict[str, int]:
    """Deterministic 64-bit stimulus words for the free variables.

    A fixed-seed LCG keyed on sorted name order -- no ``random`` -- so the
    signature buckets (and therefore the findings) are reproducible.
    """
    state = 0x243F6A8885A308D3  # pi digits; any fixed odd-ish seed works
    patterns: Dict[str, int] = {}
    for name in sorted(names):
        state = (state * 6364136223846793005 + 1442695040888963407) & _SIG_WORD
        patterns[name] = state
    return patterns


def _simulate_signatures(netlist: Netlist) -> Dict[str, int]:
    """Bit-parallel 64-sample simulation: net name -> 64-bit signature."""
    from repro.verify.cnf import comb_rows

    free = {net.name for net in netlist.inputs.values()}
    free.update(flop.pins["Q"].name for flop in netlist.sequential_cells())
    free.update(
        cell.pins[cell.spec.outputs[0]].name
        for cell in netlist.combinational_cells()
        if cell.cell_type in ("TIE0", "TIE1")
    )
    signatures = dict(_signature_patterns(free))
    for cell in netlist.topological_combinational_order():
        if cell.cell_type in ("TIE0", "TIE1"):
            continue
        spec = cell.spec
        words = [signatures.get(cell.pins[p].name, 0) for p in spec.inputs]
        out = 0
        for bits, value in comb_rows(cell.cell_type):
            if not value:
                continue
            term = _SIG_WORD
            for word, bit in zip(words, bits):
                term &= word if bit else ~word & _SIG_WORD
            out |= term
        signatures[cell.pins[spec.outputs[0]].name] = out
    return signatures


def _comb_cone_cells(netlist: Netlist) -> Dict[str, frozenset]:
    """Net name -> names of combinational cells in its transitive fanin."""
    cones: Dict[str, frozenset] = {}
    for cell in netlist.topological_combinational_order():
        spec = cell.spec
        cone = {cell.name}
        for pin in spec.inputs:
            cone.update(cones.get(cell.pins[pin].name, ()))
        cones[cell.pins[spec.outputs[0]].name] = frozenset(cone)
    return cones


class SatConstNetRule(DesignRule):
    id = "design.sat-const-net"
    severity = WARNING
    description = "non-tie cell output provably constant (SAT; foldable logic)"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        from repro.verify.cnf import CnfBuilder, encode_netlist

        netlist = ctx.netlist
        try:
            order = netlist.topological_combinational_order()
        except Exception:
            return  # comb loop etc.; structural rules already report it
        builder = CnfBuilder()
        # Tie outputs stay free variables: a net is only "provably constant"
        # when its *logic* forces the value, not when it is deliberately
        # tied off (const strides, tied EN/SET/RST pins are a feature).
        lits = encode_netlist(builder, netlist, free_ties=True)
        solver = builder.solver
        constants: Dict[str, int] = {}
        for cell in order:
            if cell.cell_type in ("TIE0", "TIE1"):
                continue
            net_name = cell.pins[cell.spec.outputs[0]].name
            lit = lits[net_name]
            can_be_1 = solver.solve([lit], conflict_limit=_SAT_CONFLICT_LIMIT)
            if can_be_1 is False:
                constants[net_name] = 0
                continue
            if can_be_1 is None:
                continue
            can_be_0 = solver.solve([-lit], conflict_limit=_SAT_CONFLICT_LIMIT)
            if can_be_0 is False:
                constants[net_name] = 1
        # Report only the *roots* of each constant cone: a cell whose output
        # is constant while none of its inputs are, so one redundancy does
        # not cascade into a finding per downstream cell.
        for cell in order:
            spec = cell.spec
            if cell.cell_type in ("TIE0", "TIE1"):
                continue
            net_name = cell.pins[spec.outputs[0]].name
            if net_name not in constants:
                continue
            if any(cell.pins[p].name in constants for p in spec.inputs):
                continue
            yield self.finding(
                f"net {net_name!r} (driven by {cell.cell_type} {cell.name!r}) "
                f"is provably constant {constants[net_name]}",
                location=ctx.location(net_name),
            )


class SatRedundantLogicRule(DesignRule):
    id = "design.sat-redundant-logic"
    severity = INFO
    description = "two cells provably compute the same function (beyond structural CSE)"

    def check(self, ctx: DesignContext) -> Iterator[Finding]:
        from repro.verify.cnf import CnfBuilder, encode_netlist

        netlist = ctx.netlist
        try:
            order = netlist.topological_combinational_order()
        except Exception:
            return
        # Candidates: real logic only.  BUF outputs equal their input by
        # construction (buffer trees are deliberate), ties are constants.
        candidates = [
            c for c in order if c.cell_type not in ("TIE0", "TIE1", "BUF")
        ]
        if len(candidates) < 2:
            return
        signatures = _simulate_signatures(netlist)
        buckets: Dict[int, List[Cell]] = {}
        for cell in candidates:
            net_name = cell.pins[cell.spec.outputs[0]].name
            buckets.setdefault(signatures[net_name], []).append(cell)
        pairs = []
        for signature in sorted(buckets):
            group = sorted(buckets[signature], key=lambda c: c.name)
            anchor = group[0]
            for other in group[1:]:
                pairs.append((anchor, other))
        if not pairs:
            return
        cones = _comb_cone_cells(netlist)
        builder = CnfBuilder()
        lits = encode_netlist(builder, netlist, free_ties=True)
        budget = _SAT_PAIR_BUDGET
        for anchor, other in pairs:
            if budget <= 0:
                break
            # Structural duplicates (same type, same input nets) are the
            # sharing pass's territory; only semantic redundancy is news.
            if anchor.cell_type == other.cell_type and {
                p: anchor.pins[p].name for p in anchor.spec.inputs
            } == {p: other.pins[p].name for p in other.spec.inputs}:
                continue
            net_a = anchor.pins[anchor.spec.outputs[0]].name
            net_b = other.pins[other.spec.outputs[0]].name
            # A cell feeding the other (buffer/inverter chains) is expected
            # structure, not redundancy.
            if anchor.name in cones.get(net_b, ()) or other.name in cones.get(
                net_a, ()
            ):
                continue
            budget -= 1
            diff = builder.xor_lit(lits[net_a], lits[net_b])
            verdict = builder.solver.solve(
                [diff], conflict_limit=_SAT_CONFLICT_LIMIT
            )
            if verdict is False:
                yield self.finding(
                    f"{anchor.cell_type} {anchor.name!r} and "
                    f"{other.cell_type} {other.name!r} provably compute the "
                    f"same function (nets {net_a!r}, {net_b!r})",
                    location=ctx.location(net_a),
                )


#: All design rules, in reporting order.  The id -> rule mapping is the
#: stable public surface: tests pin it, reports name it.
DESIGN_RULES: Tuple[DesignRule, ...] = (
    CombLoopRule(),
    UndrivenNetRule(),
    MultiDrivenRule(),
    FloatingInputRule(),
    DanglingNetRule(),
    UnknownCellRule(),
    FanoutLimitRule(),
    MissingClockRule(),
    DataOnClkRule(),
)

#: SAT-backed semantic rules, active at lint level >= 2 only: they prove
#: properties with the :mod:`repro.verify` solver, which is orders of
#: magnitude costlier than the structural walk, and raw O0 netlists
#: legitimately carry foldable logic that O1 removes -- so the clean-sweep
#: invariant above is pinned at level 1.
SAT_DESIGN_RULES: Tuple[DesignRule, ...] = (
    SatConstNetRule(),
    SatRedundantLogicRule(),
)


def rules_for_level(level: int) -> Tuple[DesignRule, ...]:
    """The rule set a given ``spec.lint`` level activates."""
    if level >= 2:
        return DESIGN_RULES + SAT_DESIGN_RULES
    return DESIGN_RULES


def lint_netlist(
    netlist: Netlist,
    *,
    library: Optional[object] = None,
    max_fanout: Optional[int] = None,
    rules: Optional[Iterable[DesignRule]] = None,
) -> LintReport:
    """Run the design rules over ``netlist`` and return a :class:`LintReport`.

    Never mutates the netlist and never raises on structural problems --
    every violation becomes a finding.
    """
    ctx = DesignContext(netlist=netlist, library=library, max_fanout=max_fanout)
    with span("lint.design"):
        findings: List[Finding] = []
        for rule in rules if rules is not None else DESIGN_RULES:
            findings.extend(rule.check(ctx))
        report = LintReport(
            target=netlist.name,
            findings=findings,
            checked=len(netlist.cells) + len(netlist.nets),
        )
        report.sort()
    if report.findings:
        metrics.incr("lint.findings", len(report.findings))
        if report.error_count:
            metrics.incr("lint.errors", report.error_count)
    return report

