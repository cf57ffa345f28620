"""Structural VHDL emitter.

Emits a flat structural VHDL-93 architecture in which every primitive cell of
the netlist is instantiated against a small behavioural component library
(also emitted, so the output is self-contained and simulatable with any VHDL
simulator).  This mirrors the output of the paper's SRAdGen tool, which
produced synthesisable VHDL for the mapped SRAG.
"""

from __future__ import annotations

from typing import List

from repro.hdl.netlist import Netlist
from repro.hdl.primitives import PRIMITIVES

__all__ = ["emit_vhdl"]

_HEADER = """\
-- Generated by repro.hdl.emit.vhdl (address decoder-decoupled memory reproduction)
library ieee;
use ieee.std_logic_1164.all;
"""

# Behavioural bodies for the primitive component library.
_COMB_EXPR = {
    "TIE0": "'0'",
    "TIE1": "'1'",
    "BUF": "A",
    "INV": "not A",
    "AND2": "A and B",
    "AND3": "A and B and C",
    "AND4": "A and B and C and D",
    "NAND2": "not (A and B)",
    "NAND3": "not (A and B and C)",
    "NAND4": "not (A and B and C and D)",
    "OR2": "A or B",
    "OR3": "A or B or C",
    "OR4": "A or B or C or D",
    "NOR2": "not (A or B)",
    "NOR3": "not (A or B or C)",
    "NOR4": "not (A or B or C or D)",
    "XOR2": "A xor B",
    "XNOR2": "not (A xor B)",
    "MUX2": "B when S = '1' else A",
    "AOI21": "not ((A and B) or C)",
    "OAI21": "not ((A or B) and C)",
}


def _escape(name: str) -> str:
    """Make a netlist identifier legal VHDL (VHDL is case-insensitive)."""
    return name.replace("$", "_")


def _entity_for(cell_type: str) -> str:
    return f"repro_{cell_type.lower()}"


def _component_declaration(cell_type: str) -> str:
    spec = PRIMITIVES[cell_type]
    ports = [f"{pin} : in std_logic" for pin in spec.inputs]
    ports += [f"{pin} : out std_logic" for pin in spec.outputs]
    port_list = ";\n      ".join(ports)
    return (
        f"  component {_entity_for(cell_type)}\n"
        f"    port (\n      {port_list}\n    );\n"
        f"  end component;\n"
    )


def _primitive_entity(cell_type: str) -> str:
    spec = PRIMITIVES[cell_type]
    ports = [f"{pin} : in std_logic" for pin in spec.inputs]
    ports += [f"{pin} : out std_logic" for pin in spec.outputs]
    port_list = ";\n    ".join(ports)
    lines = [
        _HEADER,
        f"entity {_entity_for(cell_type)} is",
        f"  port (\n    {port_list}\n  );",
        f"end entity {_entity_for(cell_type)};",
        "",
        f"architecture behavioural of {_entity_for(cell_type)} is",
        "begin",
    ]
    if not spec.sequential:
        lines.append(f"  Y <= {_COMB_EXPR[cell_type]};")
    else:
        body = ["  process (CLK)", "  begin", "    if rising_edge(CLK) then"]
        indent = "      "
        if "RST" in spec.inputs:
            body.append(f"{indent}if RST = '1' then")
            body.append(f"{indent}  Q <= '0';")
            nested = indent + "els"
        elif "SET" in spec.inputs:
            body.append(f"{indent}if SET = '1' then")
            body.append(f"{indent}  Q <= '1';")
            nested = indent + "els"
        else:
            nested = indent
        if "EN" in spec.inputs:
            body.append(f"{nested}if EN = '1' then")
            body.append(f"{indent}  Q <= D;")
            body.append(f"{indent}end if;")
        elif nested.endswith("els"):
            body.append(f"{nested}e")
            body.append(f"{indent}  Q <= D;")
            body.append(f"{indent}end if;")
        else:
            body.append(f"{indent}Q <= D;")
        body.append("    end if;")
        body.append("  end process;")
        lines.extend(body)
    lines.append(f"end architecture behavioural;")
    lines.append("")
    return "\n".join(lines)


def emit_vhdl(netlist: Netlist, *, include_primitives: bool = True) -> str:
    """Render ``netlist`` as structural VHDL.

    Parameters
    ----------
    include_primitives:
        When ``True`` (default) behavioural entities for every primitive cell
        type used by the netlist are emitted first, making the file
        self-contained.
    """
    netlist.validate()
    used_types = sorted({cell.cell_type for cell in netlist.cells.values()})

    chunks: List[str] = []
    if include_primitives:
        for cell_type in used_types:
            chunks.append(_primitive_entity(cell_type))

    ports = [f"{_escape(name)} : in std_logic" for name in netlist.inputs]
    ports += [f"{_escape(name)} : out std_logic" for name in netlist.outputs]
    port_list = ";\n    ".join(ports)

    lines = [
        _HEADER,
        f"entity {netlist.name} is",
    ]
    if ports:
        lines.append(f"  port (\n    {port_list}\n  );")
    lines.append(f"end entity {netlist.name};")
    lines.append("")
    lines.append(f"architecture structural of {netlist.name} is")
    for cell_type in used_types:
        lines.append(_component_declaration(cell_type))

    port_net_names = set(netlist.inputs) | set(netlist.outputs)
    internal_nets = sorted(
        name for name in netlist.nets if name not in port_net_names
    )
    for net_name in internal_nets:
        lines.append(f"  signal {_escape(net_name)} : std_logic;")
    lines.append("begin")

    # Output ports may alias internal nets; add explicit assignments.
    for port_name, net in netlist.outputs.items():
        if net.name != port_name:
            lines.append(f"  {_escape(port_name)} <= {_escape(net.name)};")

    for cell in netlist.cells.values():
        assocs = []
        for pin, net in cell.pins.items():
            target = _escape(net.name)
            assocs.append(f"{pin} => {target}")
        assoc_list = ", ".join(assocs)
        lines.append(
            f"  {_escape(cell.name)} : {_entity_for(cell.cell_type)} "
            f"port map ({assoc_list});"
        )
    lines.append(f"end architecture structural;")
    lines.append("")
    chunks.append("\n".join(lines))
    return "\n".join(chunks)
