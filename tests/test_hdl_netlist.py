"""Unit tests for the netlist representation."""

import pytest

from repro.hdl.netlist import Bus, Netlist, NetlistError


def test_net_creation_and_lookup():
    netlist = Netlist("t")
    a = netlist.net("a")
    assert netlist.net("a") is a
    assert a.name == "a"
    assert not a.has_driver


def test_new_net_names_are_unique():
    netlist = Netlist("t")
    names = {netlist.new_net("n").name for _ in range(100)}
    assert len(names) == 100


def test_invalid_names_rejected():
    with pytest.raises(NetlistError):
        Netlist("1bad")
    netlist = Netlist("t")
    with pytest.raises(NetlistError):
        netlist.net("bad name")


def test_bus_indexing_and_width():
    netlist = Netlist("t")
    bus = netlist.bus(8, "data")
    assert bus.width == 8
    assert len(bus) == 8
    assert bus[0] is bus.bits()[0]
    assert isinstance(bus[2:5], Bus)
    assert bus[2:5].width == 3


def test_add_input_and_output():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    assert a.is_input
    y = netlist.new_net("y")
    netlist.add_cell("INV", A=a, Y=y)
    netlist.add_output("out", y)
    assert netlist.inputs == {"a": a}
    assert netlist.outputs["out"] is y


def test_duplicate_output_rejected():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    netlist.add_output("o", a)
    with pytest.raises(NetlistError):
        netlist.add_output("o", a)


def test_add_cell_checks_pins():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    y = netlist.new_net("y")
    with pytest.raises(NetlistError):
        netlist.add_cell("INV", A=a)  # missing Y
    with pytest.raises(NetlistError):
        netlist.add_cell("INV", A=a, Y=y, Z=a)  # unknown pin
    with pytest.raises(NetlistError):
        netlist.add_cell("NOSUCHCELL", A=a, Y=y)


def test_double_driver_rejected():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    y = netlist.new_net("y")
    netlist.add_cell("INV", A=a, Y=y)
    with pytest.raises(NetlistError):
        netlist.add_cell("BUF", A=a, Y=y)


def test_driving_an_input_rejected():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    with pytest.raises(NetlistError):
        netlist.add_cell("INV", A=a, Y=a)


def test_const_and_const_bus():
    netlist = Netlist("t")
    one = netlist.const(1)
    zero = netlist.const(0)
    assert one.driver[0].cell_type == "TIE1"
    assert zero.driver[0].cell_type == "TIE0"
    bus = netlist.const_bus(5, 4)
    types = [bit.driver[0].cell_type for bit in bus]
    assert types == ["TIE1", "TIE0", "TIE1", "TIE0"]
    with pytest.raises(NetlistError):
        netlist.const_bus(16, 4)
    with pytest.raises(NetlistError):
        netlist.const(2)


def test_validate_detects_undriven_nets():
    netlist = Netlist("t")
    floating = netlist.new_net("floating")
    y = netlist.new_net("y")
    netlist.add_cell("INV", A=floating, Y=y)
    with pytest.raises(NetlistError):
        netlist.validate()


def test_stats_and_cell_queries():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    clk = netlist.add_input("clk")
    y = netlist.new_net("y")
    q = netlist.new_net("q")
    netlist.add_cell("INV", A=a, Y=y)
    netlist.add_cell("DFF", D=y, CLK=clk, Q=q)
    stats = netlist.stats()
    assert stats["INV"] == 1
    assert stats["DFF"] == 1
    assert stats["_flip_flops"] == 1
    assert len(netlist.sequential_cells()) == 1
    assert len(netlist.combinational_cells()) == 1


def test_topological_order_respects_dependencies():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    n1 = netlist.new_net("n1")
    n2 = netlist.new_net("n2")
    c1 = netlist.add_cell("INV", A=a, Y=n1)
    c2 = netlist.add_cell("INV", A=n1, Y=n2)
    order = netlist.topological_combinational_order()
    assert order.index(c1) < order.index(c2)


def test_combinational_loop_detected():
    netlist = Netlist("t")
    n1 = netlist.new_net("n1")
    n2 = netlist.new_net("n2")
    netlist.add_cell("INV", A=n1, Y=n2)
    netlist.add_cell("INV", A=n2, Y=n1)
    with pytest.raises(NetlistError):
        netlist.topological_combinational_order()


def test_output_bus_names():
    netlist = Netlist("t")
    bus = Bus([netlist.const(1), netlist.const(0)])
    netlist.add_output_bus("sel", bus)
    assert set(netlist.outputs) == {"sel_0", "sel_1"}


# ---------------------------------------------------------------------------
# Rewriting primitives (used by the logic-optimization passes)
# ---------------------------------------------------------------------------

def _and_pair():
    netlist = Netlist("rw")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y1 = netlist.net("y1")
    y2 = netlist.net("y2")
    netlist.add_cell("AND2", name="g1", A=a, B=b, Y=y1)
    netlist.add_cell("AND2", name="g2", A=a, B=b, Y=y2)
    inv_y = netlist.net("inv_y")
    netlist.add_cell("INV", name="g3", A=y2, Y=inv_y)
    netlist.add_output("o1", y2)
    netlist.add_output("o2", inv_y)
    return netlist


def test_replace_net_moves_loads_and_output_aliases():
    netlist = _and_pair()
    y1, y2 = netlist.net("y1"), netlist.net("y2")
    moved = netlist.replace_net(y2, y1)
    # One cell load (the INV) and one output-port alias moved.
    assert moved == 2
    assert netlist.outputs["o1"] is y1
    assert netlist.cells["g3"].pins["A"] is y1
    assert y2.loads == [] and y2.driver is not None
    assert netlist.replace_net(y1, y1) == 0
    netlist.validate()


def test_replace_net_rejects_foreign_nets():
    netlist = _and_pair()
    other = Netlist("other")
    with pytest.raises(NetlistError):
        netlist.replace_net(netlist.net("y1"), other.net("x"))


def test_remove_cell_detaches_driver_and_loads():
    netlist = _and_pair()
    y2 = netlist.net("y2")
    a = netlist.inputs["a"]
    before = len([1 for cell, _pin in a.loads if cell.name == "g2"])
    assert before == 1
    removed = netlist.remove_cell("g2")
    assert removed.name == "g2" and "g2" not in netlist.cells
    assert y2.driver is None
    assert all(cell.name != "g2" for cell, _pin in a.loads)
    with pytest.raises(NetlistError):
        netlist.remove_cell("g2")


def test_prune_dangling_nets_spares_ports_and_connected_nets():
    netlist = _and_pair()
    dangling = netlist.net("floating")
    unused_input = netlist.add_input("spare")
    netlist.replace_net(netlist.net("y2"), netlist.net("y1"))
    netlist.remove_cell("g2")  # leaves y2 driverless and loadless
    pruned = netlist.prune_dangling_nets()
    assert pruned == 2
    assert "floating" not in netlist.nets and "y2" not in netlist.nets
    # Ports are never pruned, even when disconnected.
    assert unused_input.name in netlist.nets
    assert dangling is not netlist.net("floating")  # recreated fresh is fine
    netlist.validate()


# ---------------------------------------------------------------------------
# Topological-order caching and rewrite listeners
# ---------------------------------------------------------------------------

def test_topological_order_is_cached_and_invalidated():
    netlist = _and_pair()
    first = netlist.topological_combinational_order()
    second = netlist.topological_combinational_order()
    assert [c.name for c in first] == [c.name for c in second]
    # The cached list is defensively copied: callers may keep or mutate it.
    first.clear()
    assert [c.name for c in netlist.topological_combinational_order()] == [
        c.name for c in second
    ]
    # Every structural mutation drops the cache and the order stays correct.
    netlist.remove_cell("g3")
    after_remove = netlist.topological_combinational_order()
    assert "g3" not in [c.name for c in after_remove]
    y1, y2 = netlist.net("y1"), netlist.net("y2")
    netlist.replace_net(y2, y1)
    new_net = netlist.new_net("tail")
    netlist.add_cell("INV", name="g4", A=y1, Y=new_net)
    names = [c.name for c in netlist.topological_combinational_order()]
    assert "g4" in names
    assert names.index("g1") < names.index("g4")


def test_rewrite_listeners_fire_and_unsubscribe():
    netlist = _and_pair()
    events = []
    unsubscribe = netlist.add_rewrite_listener(
        lambda event, *payload: events.append((event, payload))
    )

    y1, y2 = netlist.net("y1"), netlist.net("y2")
    netlist.replace_net(y2, y1)
    event, payload = events[-1]
    assert event == "replace_net"
    old, new, moved = payload
    assert old is y2 and new is y1
    assert {(cell.name, pin) for cell, pin in moved} == {("g3", "A")}

    removed = netlist.remove_cell("g2")
    assert events[-1] == ("remove_cell", (removed,))

    added = netlist.add_cell("INV", name="g5", A=y1, Y=netlist.new_net("q"))
    assert events[-1] == ("add_cell", (added,))

    unsubscribe()
    unsubscribe()  # idempotent
    count = len(events)
    netlist.add_cell("INV", name="g6", A=y1, Y=netlist.new_net("r"))
    assert len(events) == count


def test_replace_net_noop_does_not_notify():
    netlist = _and_pair()
    events = []
    netlist.add_rewrite_listener(lambda event, *payload: events.append(event))
    net = netlist.net("y1")
    assert netlist.replace_net(net, net) == 0
    assert events == []


# ---------------------------------------------------------------------------
# DFF_EN_SET pin names: the set-to-1 control pin is SET (RST is not accepted)
# ---------------------------------------------------------------------------

def test_dff_en_set_rejects_legacy_rst_pin():
    nl = Netlist("legacy")
    clk = nl.add_input("clk")
    d = nl.add_input("d")
    en = nl.add_input("en")
    rst = nl.add_input("rst")
    q = nl.new_net("q")
    with pytest.raises(NetlistError, match="SET"):
        nl.add_cell("DFF_EN_SET", name="u1", D=d, CLK=clk, EN=en, RST=rst, Q=q)


def test_dff_en_set_modern_set_pin_does_not_warn(recwarn):
    import warnings

    nl = Netlist("modern")
    clk = nl.add_input("clk")
    d = nl.add_input("d")
    en = nl.add_input("en")
    s = nl.add_input("s")
    q = nl.new_net("q")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        nl.add_cell("DFF_EN_SET", name="u1", D=d, CLK=clk, EN=en, SET=s, Q=q)


def test_add_cell_rejects_unknown_types_and_mismatched_pins():
    netlist = Netlist("t")
    a, y = netlist.add_input("a"), netlist.net("y")
    with pytest.raises(NetlistError, match="unknown cell type"):
        netlist.add_cell("NAND9", A=a, Y=y)
    with pytest.raises(NetlistError, match=r"unconnected pins \['B'\]"):
        netlist.add_cell("AND2", A=a, Y=y)
    # A missing pin is reported before an unknown one.
    with pytest.raises(NetlistError, match=r"unconnected pins \['B'\]"):
        netlist.add_cell("AND2", A=a, C=a, Y=y)
    with pytest.raises(NetlistError, match=r"unknown pins \['C'\]"):
        netlist.add_cell("INV", A=a, C=a, Y=y)
    assert not netlist.cells and not y.has_driver


# ---------------------------------------------------------------------------
# Structural clone
# ---------------------------------------------------------------------------

def _structure(netlist):
    """Everything a clone must reproduce, by name and in order."""
    return (
        [
            (
                name,
                net.is_input,
                net.driver and (net.driver[0].name, net.driver[1]),
                [(cell.name, pin) for cell, pin in net.loads],
            )
            for name, net in netlist.nets.items()
        ],
        [
            (name, cell.cell_type, [(pin, net.name) for pin, net in cell.pins.items()])
            for name, cell in netlist.cells.items()
        ],
        [(port, net.name) for port, net in netlist.inputs.items()],
        [(port, net.name) for port, net in netlist.outputs.items()],
    )


def _fifo_8x8_candidates():
    """Every style's factory; fifo is the one workload every style applies to."""
    from repro.engine.jobs import candidate_factories
    from repro.workloads.registry import build_pattern

    return [
        pytest.param(factory, id=f"{style}-{variant}")
        for style, variant, factory in candidate_factories(build_pattern("fifo", 8, 8))
    ]


@pytest.mark.parametrize("stage", ["raw", "O0", "O1"])
@pytest.mark.parametrize("factory", _fifo_8x8_candidates())
def test_clone_reproduces_the_netlist_exactly(factory, stage):
    """Raw elaborated netlists, and post-flow ones (buffered; O1 rewritten)."""
    from repro.flow import FlowSpec
    from repro.synth.area import area_report
    from repro.synth.timing import timing_report

    design = factory()
    if stage == "raw":
        netlist = design.netlist
    else:
        netlist = design.synthesize(FlowSpec(opt_level=int(stage[1]))).netlist
    clone = netlist.clone()
    assert _structure(clone) == _structure(netlist)
    originals = {id(obj) for obj in (*netlist.nets.values(), *netlist.cells.values())}
    assert not originals & {id(obj) for obj in (*clone.nets.values(), *clone.cells.values())}
    assert timing_report(clone) == timing_report(netlist)
    assert area_report(clone) == area_report(netlist)


def test_clone_rejects_a_double_driven_net():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    y = netlist.net("y")
    netlist.add_cell("INV", name="first", A=a, Y=y)
    y.driver = None  # detached by hand, so a second driver can be connected
    netlist.add_cell("BUF", name="second", A=a, Y=y)
    with pytest.raises(NetlistError, match=r"'y' already driven.*second\.Y"):
        netlist.clone()
