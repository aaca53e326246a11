"""Structural Verilog emission.

The paper's flow emits the allocated FA-tree as a Verilog netlist which is
then fed to a commercial logic synthesizer.  This module reproduces that
interface: it turns a :class:`~repro.netlist.core.Netlist` into a
self-contained structural Verilog file.  Cell types equal to a Verilog
primitive (``and``, ``nor``, ...) are emitted as that primitive; every other
type (full and half adders, MUX2, the complex gates) is emitted as an
instance of a ``REPRO_<type>`` module whose definition is rendered from the
cell type's expressions and appended to the output, so the file elaborates
without an external library.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.netlist.cells import CellType, cell_semantics
from repro.netlist.core import Net, Netlist

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _module_text(cell_type: CellType) -> str:
    """Gate-level helper module of a cell type with no Verilog primitive."""
    semantics = cell_semantics(cell_type)
    ports = [f"input {p}" for p in semantics.inputs]
    ports += [f"output {p}" for p in semantics.outputs]
    width = max(len(p) for p in semantics.outputs)
    assigns = [f"  assign {port.ljust(width)} = {expression};"
               for port, expression in zip(semantics.outputs, semantics.verilog_expressions)]
    header = f"module REPRO_{cell_type.value}({', '.join(ports)});"
    return "\n".join([header, *assigns, "endmodule"])


def _escape(name: str) -> str:
    """Return a legal Verilog identifier for ``name`` (escaped if needed)."""
    if _IDENTIFIER_RE.match(name):
        return name
    return f"\\{name} "


def _net_ref(net: Net) -> str:
    """Verilog expression referring to ``net`` (constants become literals)."""
    if net.is_constant:
        return "1'b1" if net.const_value else "1'b0"
    return _escape(net.name)


def to_verilog(netlist: Netlist, module_name: str = None) -> str:
    """Render ``netlist`` as a structural Verilog description.

    The top module exposes every primary input and output as a scalar port
    (bit ``name[i]`` becomes port ``name_i``); helper modules for cell types
    without a Verilog primitive are appended after the top module when used.
    """
    module_name = module_name or netlist.name or "top"
    port_names: Dict[str, str] = {}

    def port_name(net: Net) -> str:
        if net.name not in port_names:
            sanitized = re.sub(r"[^A-Za-z0-9_]", "_", net.name)
            if not _IDENTIFIER_RE.match(sanitized):
                sanitized = f"p_{sanitized}"
            base = sanitized
            suffix = 1
            while sanitized in port_names.values():
                suffix += 1
                sanitized = f"{base}_{suffix}"
            port_names[net.name] = sanitized
        return port_names[net.name]

    inputs = netlist.primary_inputs
    outputs = netlist.primary_outputs
    ports = [port_name(n) for n in inputs] + [port_name(n) for n in outputs]

    lines: List[str] = []
    lines.append(f"// Generated by repro {module_name}: structural netlist")
    lines.append(f"module {module_name}({', '.join(ports)});")
    for net in inputs:
        lines.append(f"  input {port_name(net)};")
    for net in outputs:
        lines.append(f"  output {port_name(net)};")

    # Internal wire declarations (everything that is not a port or constant).
    port_net_names = {n.name for n in inputs} | {n.name for n in outputs}
    for net in netlist.nets.values():
        if net.name in port_net_names or net.is_constant:
            continue
        lines.append(f"  wire {_escape(net.name)};")

    # Tie port names to internal net names where they differ.
    for net in inputs:
        if port_name(net) != net.name:
            lines.append(f"  wire {_escape(net.name)};")
            lines.append(f"  assign {_escape(net.name)} = {port_name(net)};")
    for net in outputs:
        if port_name(net) != net.name:
            if not net.is_constant:
                lines.append(f"  wire {_escape(net.name)};")
            lines.append(f"  assign {port_name(net)} = {_net_ref(net)};")

    used_modules = set()
    for cell in netlist.topological_cells():
        semantics = cell_semantics(cell.cell_type)
        instance = _escape(cell.name)
        if semantics.verilog_primitive:
            out_ref = _net_ref(cell.outputs[semantics.outputs[0]])
            in_refs = ", ".join(_net_ref(cell.inputs[p]) for p in semantics.inputs)
            lines.append(f"  {semantics.verilog_primitive} {instance}({out_ref}, {in_refs});")
        else:
            used_modules.add(cell.cell_type)
            bindings = [f".{p}({_net_ref(cell.inputs[p])})" for p in semantics.inputs]
            bindings += [f".{p}({_net_ref(cell.outputs[p])})" for p in semantics.outputs]
            lines.append(f"  REPRO_{cell.cell_type.value} {instance}({', '.join(bindings)});")

    lines.append("endmodule")

    for cell_type in CellType:
        if cell_type in used_modules:
            lines += ["", _module_text(cell_type)]
    lines.append("")
    return "\n".join(lines)
