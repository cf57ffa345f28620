"""Equivalence and unit tests for the compiled (levelised) simulator.

The compiled simulator is only allowed to exist because it is bit-for-bit
identical to the reference two-phase simulator; these tests pin that down
on hand-built netlists and on every built-in workload's generators.
"""

import random

import pytest

from oracles.power import _reference_toggles
from repro.engine.jobs import build_design
from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import Bus, Netlist
from repro.hdl.simulator import SimulationError, Simulator
from repro.synth.power import estimate_power
from repro.workloads.registry import available_workloads, build_pattern


def _toggle_flop():
    netlist = Netlist("toggle")
    clk = netlist.add_input("clk")
    q = netlist.new_net("q")
    d = netlist.new_net("d")
    netlist.add_cell("INV", A=q, Y=d)
    netlist.add_cell("DFF", D=d, CLK=clk, Q=q)
    netlist.add_output("q_out", q)
    return netlist


def _lockstep_assert(netlist, cycles=32, pokes=()):
    """Step both simulators in lockstep and compare every net every cycle."""
    ref = Simulator(netlist)
    fast = CompiledSimulator(netlist)
    for port, value in pokes:
        ref.poke(port, value)
        fast.poke(port, value)
    for cycle in range(cycles):
        ref.step()
        fast.step()
        for name, net in netlist.nets.items():
            assert ref.peek(net) == fast.peek(net), (
                f"net {name!r} diverged at cycle {cycle}"
            )
    for flop in netlist.sequential_cells():
        assert ref.flop_state(flop.name) == fast.flop_state(flop.name)


# ---------------------------------------------------------------------------
# Hand-built netlists
# ---------------------------------------------------------------------------

def test_toggle_flop_matches_reference():
    _lockstep_assert(_toggle_flop(), cycles=8)


def test_combinational_poke_settle_matches_reference():
    netlist = Netlist("comb")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.new_net("y")
    netlist.add_cell("AND2", A=a, B=b, Y=y)
    netlist.add_output("y", y)
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    for va, vb in [(1, 1), (1, 0), (0, 1), (0, 0), (1, 1)]:
        for sim in (ref, fast):
            sim.poke("a", va)
            sim.poke("b", vb)
            sim.settle()
        assert ref.peek("y") == fast.peek("y") == (va & vb)


def test_every_primitive_type_compiles_and_matches():
    """One instance of every combinational primitive, driven through all inputs."""
    from repro.hdl.primitives import PRIMITIVES

    netlist = Netlist("allprims")
    inputs = [netlist.add_input(f"i{n}") for n in range(4)]
    for cell_type, spec in PRIMITIVES.items():
        if spec.sequential:
            continue
        pins = {pin: inputs[i] for i, pin in enumerate(spec.inputs)}
        out = netlist.new_net(f"o_{cell_type.lower()}_")
        netlist.add_cell(cell_type, Y=out, **pins)
        netlist.add_output(f"y_{cell_type.lower()}", out)
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    for value in range(16):
        for sim in (ref, fast):
            sim.poke_bus(Bus(inputs), value)
            sim.settle()
        for name in netlist.outputs:
            assert ref.peek(name) == fast.peek(name), (name, value)


def test_every_flop_type_matches():
    netlist = Netlist("allflops")
    clk = netlist.add_input("clk")
    d = netlist.add_input("d")
    en = netlist.add_input("en")
    rst = netlist.add_input("rst")
    netlist.add_cell("DFF", D=d, CLK=clk, Q=netlist.net("q_dff"))
    netlist.add_cell("DFF_RST", D=d, CLK=clk, RST=rst, Q=netlist.net("q_rst"))
    netlist.add_cell("DFF_SET", D=d, CLK=clk, SET=rst, Q=netlist.net("q_set"))
    netlist.add_cell("DFF_EN", D=d, CLK=clk, EN=en, Q=netlist.net("q_en"))
    netlist.add_cell(
        "DFF_EN_RST", D=d, CLK=clk, EN=en, RST=rst, Q=netlist.net("q_enrst")
    )
    netlist.add_cell(
        "DFF_EN_SET", D=d, CLK=clk, EN=en, SET=rst, Q=netlist.net("q_enset")
    )
    for name in ("q_dff", "q_rst", "q_set", "q_en", "q_enrst", "q_enset"):
        netlist.add_output(name, netlist.net(name))
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    # Walk every input combination for a few cycles each.
    for combo in range(8):
        for sim in (ref, fast):
            sim.poke("d", combo & 1)
            sim.poke("en", (combo >> 1) & 1)
            sim.poke("rst", (combo >> 2) & 1)
            sim.step(2)
        for name in netlist.outputs:
            assert ref.peek(name) == fast.peek(name), (name, combo)


def test_step_keyword_ports_restore_matches_reference():
    netlist = Netlist("en")
    clk = netlist.add_input("clk")
    en = netlist.add_input("en")
    q = netlist.new_net("q")
    one = netlist.const(1)
    netlist.add_cell("DFF_EN", D=one, CLK=clk, EN=en, Q=q)
    netlist.add_output("q", q)
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    for sim in (ref, fast):
        sim.step(en=1)
        assert sim.peek("q") == 1
        # The keyword drive does not persist past the call.
        assert sim.peek("en") == 0
        sim.step(3)
    assert ref.peek("q") == fast.peek("q")


def test_run_matches_step_and_counts_toggles():
    netlist = _toggle_flop()
    stepped = CompiledSimulator(netlist)
    stepped.step(6)
    ran = CompiledSimulator(netlist)
    ran.run(6)
    assert ran.cycle == stepped.cycle == 6
    assert ran.peek("q_out") == stepped.peek("q_out")
    counts = ran.toggle_counts()
    q_name = netlist.outputs["q_out"].name
    assert counts[q_name] == 6  # toggles every cycle
    ran.reset_toggles()
    assert ran.toggle_counts() == {}
    with pytest.raises(SimulationError):
        ran.run(-1)


def test_peek_onehot_and_flop_state_match_reference_api():
    netlist = Netlist("onehot")
    bits = netlist.add_input_bus("b", 4)
    netlist.add_output_bus("o", bits)
    sim = CompiledSimulator(netlist)
    sim.poke_bus(bits, 0)
    assert sim.peek_onehot(bits) is None
    sim.poke_bus(bits, 4)
    assert sim.peek_onehot(bits) == 2
    sim.poke_bus(bits, 5)
    with pytest.raises(SimulationError):
        sim.peek_onehot(bits)
    foreign = Netlist("other").add_input("foreign")
    with pytest.raises(SimulationError):
        sim.peek_onehot(Bus([foreign]))
    with pytest.raises(SimulationError):
        sim.flop_state("nope")


def test_error_paths_match_reference():
    netlist = _toggle_flop()
    other = Netlist("other")
    foreign = other.add_input("foreign")
    for sim in (Simulator(netlist), CompiledSimulator(netlist)):
        with pytest.raises(SimulationError):
            sim.poke("nonexistent", 1)
        with pytest.raises(SimulationError):
            sim.peek("nonexistent")
        with pytest.raises(SimulationError):
            sim.poke_bus(Bus([foreign]), 1)
        with pytest.raises(SimulationError):
            sim.peek_bus(Bus([foreign]))
        with pytest.raises(SimulationError):
            sim.peek(foreign)


# ---------------------------------------------------------------------------
# Property-style equivalence on every built-in workload
# ---------------------------------------------------------------------------

_GENERATORS = (("SRAG", "two-hot"), ("CntAG", "decoders"), ("FSM", "binary"))


@pytest.mark.parametrize("workload", available_workloads())
@pytest.mark.parametrize("style,variant", _GENERATORS)
def test_workload_addresses_and_toggles_bit_identical(workload, style, variant):
    """Address sequences and per-net toggle counts match on real designs."""
    pattern = build_pattern(workload, 8, 8)
    try:
        design = build_design(pattern, style, variant)
        netlist = design.netlist
    except Exception:
        pytest.skip(f"{style}[{variant}] not applicable to {workload}")
    cycles = min(pattern.to_sequence().length, 96)

    # Bit-identical value evolution (covers the emitted address bits).
    ref = Simulator(netlist)
    fast = CompiledSimulator(netlist)
    pokes = []
    if "reset" in netlist.inputs:
        pokes.append(("reset", 0))
    if "next" in netlist.inputs:
        pokes.append(("next", 1))
    for port, value in pokes:
        ref.poke(port, value)
        fast.poke(port, value)
    for cycle in range(cycles):
        ref.step()
        fast.step()
        for name, net in netlist.outputs.items():
            assert ref.peek(net) == fast.peek(net), (name, cycle)
    for name, net in netlist.nets.items():
        assert ref.peek(net) == fast.peek(net), name

    # Bit-identical toggle counts through the power estimator protocol.
    compiled = estimate_power(netlist, cycles=cycles)
    assert compiled.toggle_counts == _reference_toggles(netlist, cycles)


@pytest.mark.parametrize("style,variant", _GENERATORS)
def test_run_sequence_matches_reference(style, variant):
    pattern = build_pattern("fifo", 4, 4)
    design = build_design(pattern, style, variant)
    netlist = design.netlist
    bus_nets = [netlist.outputs[name] for name in sorted(netlist.outputs)]
    bus = Bus(bus_nets)
    cycles = pattern.to_sequence().length
    assert CompiledSimulator(netlist).run_sequence(bus, cycles) == Simulator(
        netlist
    ).run_sequence(bus, cycles)


# ---------------------------------------------------------------------------
# The reference simulator skips its pre-edge settle when nothing was poked
# ---------------------------------------------------------------------------

def _assert_observably_equal(ref, fast, netlist, context):
    for name, net in netlist.outputs.items():
        assert ref.peek(net) == fast.peek(net), (name, context)
    for flop in netlist.sequential_cells():
        assert ref.flop_state(flop.name) == fast.flop_state(flop.name), (
            flop.name,
            context,
        )


def _workload_netlist(style, variant):
    return build_design(build_pattern("motion_est_read", 4, 4), style, variant).netlist


@pytest.mark.parametrize("style,variant", _GENERATORS)
def test_poke_then_step_without_settle_matches_compiled(style, variant):
    """The two cases the reference's dirty flag exists for."""
    netlist = _workload_netlist(style, variant)
    controls = Bus([netlist.inputs["next"], netlist.inputs["reset"]])
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    script = [
        ("poke", "reset", 1),
        ("step",),  # poke, then step() with no settle in between
        ("poke", "reset", 0),
        ("poke", "next", 1),
        ("step",),
        ("step", 2),
        ("poke", "next", 0),
        ("step", 0),  # poke, then step(0)
        ("step",),
        ("poke", "next", 1),
        ("step", 0),
        ("step", 3),
    ]
    # Toggle ``next`` through poke_bus, so some edge sees a stale carry.
    for _ in range(8):
        for value in (0b01, 0b00):  # next high (reset low), then next low
            script += [("poke_bus", controls, value), ("step",)]
    for i, (method, *args) in enumerate(script):
        for sim in (ref, fast):
            getattr(sim, method)(*args)
        _assert_observably_equal(ref, fast, netlist, (i, method, args))


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("style,variant", _GENERATORS)
def test_random_interleaving_matches_compiled(style, variant, seed):
    """Seeded random poke/settle/step/reset mixes, compared after every call."""
    netlist = _workload_netlist(style, variant)
    ports = sorted(netlist.inputs)
    bus = Bus([netlist.inputs[port] for port in ports])
    rng = random.Random(seed)

    def level(port):
        # Rare resets, so the counters get deep enough to carry.
        return int(rng.random() < (0.05 if port == "reset" else 0.5))

    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    for i in range(500):
        op = rng.choice(["poke", "poke_bus", "settle", "step", "step", "reset"])
        if op == "poke":
            port = rng.choice(ports)
            args, kwargs = (port, level(port)), {}
        elif op == "poke_bus":
            value = sum(level(port) << bit for bit, port in enumerate(ports))
            args, kwargs = (bus, value), {}
        elif op == "step":
            # Half the steps drive no ports, so earlier pokes reach the edge.
            driven = []
            if rng.random() < 0.5:
                driven = rng.sample(ports, rng.randint(1, len(ports)))
            args = (rng.choice([0, 1, 3]),)
            kwargs = {port: level(port) for port in driven}
        else:
            args, kwargs = (), {}
        for sim in (ref, fast):
            getattr(sim, op)(*args, **kwargs)
        _assert_observably_equal(ref, fast, netlist, (seed, i, op, args, kwargs))
    assert ref.cycle == fast.cycle


# ---------------------------------------------------------------------------
# The reference simulator evaluates only the flops whose inputs or state moved
# ---------------------------------------------------------------------------

def test_flop_skip_edge_cases_match_compiled():
    """A flop seen only through ``flop_state`` (its ``Q`` pin unconnected),
    and flops whose ``EN`` is a top-level port driven between edges by
    ``poke`` and for one call by ``step(**ports)``."""
    netlist = _toggle_flop()
    clk, en = netlist.inputs["clk"], netlist.add_input("en")
    q_gated, d_gated = netlist.new_net("q_gated"), netlist.new_net("d_gated")
    netlist.add_cell("INV", A=q_gated, Y=d_gated)
    netlist.add_cell("DFF_EN", "gated", D=d_gated, CLK=clk, EN=en, Q=q_gated)
    netlist.add_output("gated", q_gated)
    toggling, unread = netlist.outputs["q_out"], netlist.new_net("unread")
    hidden = netlist.add_cell("DFF_EN", "hidden", D=toggling, CLK=clk, EN=en, Q=unread)
    del hidden.pins["Q"]
    ref, fast = Simulator(netlist), CompiledSimulator(netlist)
    script = [
        ("step",),
        ("poke", "en", 1),
        ("step",),
        ("step", 2),
        ("poke", "en", 0),
        ("step", 3),
        ("step", 1, {"en": 1}),  # enabled for this call only
        ("step",),
        ("poke", "en", 1),
        ("poke", "en", 0),  # back before any edge
        ("step", 2),
        ("poke", "en", 0),  # no change
        ("step", 2, {"en": 1}),
        ("poke", "en", 1),
        ("step", 1, {"en": 0}),
        ("step", 2),
    ]
    for i, (method, *args) in enumerate(script):
        kwargs = args.pop() if args and isinstance(args[-1], dict) else {}
        for sim in (ref, fast):
            getattr(sim, method)(*args, **kwargs)
        # Compares every flop's state, the unconnected one's included.
        _assert_observably_equal(ref, fast, netlist, (i, method, args, kwargs))
