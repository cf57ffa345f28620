"""Guards for the table-driven netlist kernels.

Cell creation, validation, levelisation, buffering, timing and net loads
index per-primitive tables instead of walking ``CellSpec`` objects.  These
tests pin what those kernels must keep: pins and loads that agree after the
whole flow, the many-way load move buffering relies on, and the load
model's left-to-right float sum.
"""

import math

import pytest

from repro.engine.jobs import candidate_factories
from repro.flow import FlowSpec
from repro.hdl.netlist import Netlist, NetlistError
from repro.hdl.primitives import OUTPUT_PINS
from repro.synth.buffering import insert_buffer_trees
from repro.synth.cell_library import CellCharacteristics, CellLibrary, net_load
from repro.workloads.registry import build_pattern


def _assert_pins_and_loads_agree(netlist):
    """Every load and driver points back at its net, and every pin forward."""
    nets = netlist.nets
    cells = netlist.cells
    for name, net in nets.items():
        for cell, pin in net.loads:
            assert cells[cell.name] is cell, f"{name}: load on a foreign cell {cell.name}"
            assert cell.pins[pin] is net, f"{name}: {cell.name}.{pin} points elsewhere"
        if net.driver is not None:
            cell, pin = net.driver
            assert cells[cell.name] is cell, f"{name}: driven by a foreign cell"
            assert pin in OUTPUT_PINS[cell.cell_type]
            assert cell.pins[pin] is net, f"{name}: driver {cell.name}.{pin} points elsewhere"
    for cell in cells.values():
        for pin, net in cell.pins.items():
            assert nets[net.name] is net, f"{cell.name}.{pin}: net not in the netlist"
            if pin in OUTPUT_PINS[cell.cell_type]:
                assert net.driver is not None and net.driver[0] is cell
                assert net.driver[1] == pin
            else:
                matches = [load for load in net.loads if load[0] is cell and load[1] == pin]
                assert len(matches) == 1, f"{cell.name}.{pin} listed {len(matches)}x"


_FIFO_8X8 = candidate_factories(build_pattern("fifo", 8, 8))


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize(
    "factory", [f for _, _, f in _FIFO_8X8], ids=[f"{s}-{v}" for s, v, _ in _FIFO_8X8]
)
def test_pins_and_loads_agree_after_the_flow(factory, opt_level):
    design = factory()
    result = design.synthesize(spec=FlowSpec(opt_level=opt_level))
    _assert_pins_and_loads_agree(result.netlist)


# ---------------------------------------------------------------- loads
def _hub(fanout):
    netlist = Netlist("hub")
    hub = netlist.add_input("hub")
    for i in range(fanout):
        out = netlist.new_net(f"o{i}")
        netlist.add_cell("INV", name=f"g{i}", A=hub, Y=out)
        netlist.add_output(f"y{i}", out)
    return netlist, hub


def test_distribute_loads_moves_groups_and_keeps_the_given_order():
    netlist = Netlist("split")
    hub = netlist.add_input("hub")
    left, right = netlist.new_net("left"), netlist.new_net("right")
    netlist.add_cell("BUF", name="bl", A=hub, Y=left)
    netlist.add_cell("BUF", name="br", A=hub, Y=right)
    for i in range(6):
        out = netlist.new_net(f"o{i}")
        netlist.add_cell("INV", name=f"g{i}", A=hub, Y=out)
        netlist.add_output(f"y{i}", out)
    buf_l, buf_r, *loads = hub.loads
    before = netlist.topological_combinational_order()
    assert [c.name for c in before].index("g1") < [c.name for c in before].index("bl")
    events = []
    netlist.add_rewrite_listener(lambda event, *payload: events.append((event, payload)))

    keep = [buf_r, loads[5], buf_l, loads[0]]
    moved = netlist.distribute_loads(
        hub, keep, [(left, [loads[1], loads[3]]), (right, [loads[2], loads[4]])]
    )

    assert moved == 4
    assert hub.loads == keep
    assert left.loads == [loads[1], loads[3]]
    assert right.loads == [loads[2], loads[4]]
    assert netlist.cells["g3"].pins["A"] is left
    assert [
        (event, old, new, [c.name for c, _ in group]) for event, (old, new, group) in events
    ] == [
        ("replace_net", hub, left, ["g1", "g3"]),
        ("replace_net", hub, right, ["g2", "g4"]),
    ]
    # The cached levelisation was dropped: each buffer now precedes its loads.
    order = [c.name for c in netlist.topological_combinational_order()]
    assert order.index("bl") < order.index("g1") and order.index("br") < order.index("g4")
    _assert_pins_and_loads_agree(netlist)


def test_distribute_loads_rejects_a_bad_partition():
    netlist, hub = _hub(4)
    loads = list(hub.loads)
    other = netlist.new_net("other")
    with pytest.raises(NetlistError, match="partition"):
        netlist.distribute_loads(hub, loads[:1], [(other, loads[1:3])])
    stray = netlist.add_input("stray")
    netlist.add_cell("INV", name="s", A=stray, Y=netlist.new_net("sy"))
    with pytest.raises(NetlistError, match="does not load"):
        netlist.distribute_loads(hub, loads, [(other, [(netlist.cells["s"], "A")])])
    with pytest.raises(NetlistError, match="not in this netlist"):
        netlist.distribute_loads(hub, loads[:2], [(Netlist("x").net("other"), loads[2:])])
    # Nothing moved on any rejection.
    assert hub.loads == loads and other.loads == []


def test_buffering_reports_each_group_move_to_listeners():
    netlist, hub = _hub(20)
    data = list(hub.loads)
    moves = []
    netlist.add_rewrite_listener(
        lambda event, *payload: moves.append(payload) if event == "replace_net" else None
    )
    assert insert_buffer_trees(netlist, max_fanout=8) == 3
    # Three strided groups of the twenty loads, in group order.
    assert [group for old, _, group in moves if old is hub] == [data[0::3], data[1::3], data[2::3]]
    assert [cell.cell_type for cell, _ in hub.loads] == ["BUF"] * 3
    _assert_pins_and_loads_agree(netlist)


def test_net_load_adds_pin_caps_left_to_right():
    # Caps whose left-to-right double sum differs from the correctly rounded
    # one: sum() compensates from CPython 3.12, left-to-right addition does
    # not, and every recorded delay and energy was computed left to right.
    caps = {"INV": 0.1, "NAND2": 0.2, "NOR2": 0.3, "DFF": 7.0}
    library = CellLibrary(
        name="ltr",
        tau=0.02,
        wire_cap_per_fanout=0.0,
        cells={t: CellCharacteristics(area=1.0, input_cap=c, logical_effort=1.0,
                                      parasitic_delay=1.0) for t, c in caps.items()},
    )
    netlist = Netlist("ltr")
    hub = netlist.add_input("hub")
    other = netlist.add_input("other")
    netlist.add_cell("INV", A=hub, Y=netlist.new_net())
    netlist.add_cell("NAND2", A=hub, B=other, Y=netlist.new_net())
    netlist.add_cell("NOR2", A=hub, B=other, Y=netlist.new_net())
    netlist.add_cell("DFF", D=other, CLK=hub, Q=netlist.new_net())  # clock pin: not a load

    assert (0.1 + 0.2) + 0.3 != math.fsum([0.1, 0.2, 0.3])
    assert net_load(hub, library) == (0.1 + 0.2) + 0.3 == 0.6000000000000001
