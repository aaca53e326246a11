"""Structural hashing / common-subexpression merging.

Two cells of the same type reading the same input nets compute the same
outputs, so one of them is redundant.  The pass sweeps the netlist in
topological order keeping a hash table of canonical cell signatures; every
later duplicate is retired in favour of the first occurrence.  Because
merges rewire fanout *before* downstream cells are visited, one sweep merges
whole equivalent cones, not just single cells.

Signatures are canonicalized under each cell type's input symmetries
(:attr:`repro.netlist.cells.CellSemantics.symmetries`): FA, HA, XOR3, MAJ3
and the two-input gates sort their input nets, AOI21/OAI21 their ``a``/``b``
pair, AOI22 within and between its pairs; MUX2 is order-sensitive.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.netlist.cells import CellType, cell_output_ports, cell_semantics
from repro.netlist.core import Cell, Netlist
from repro.opt.base import RewritePass, retire_cell


def _signature(cell: Cell) -> Tuple:
    """Canonical structural signature of a cell (type + input net names)."""
    semantics = cell_semantics(cell.cell_type)
    names = [cell.inputs[p].name for p in semantics.inputs]
    return (cell.cell_type.value, semantics.canonical_inputs(names))


class CommonSubexpressionPass(RewritePass):
    """Merge structurally identical cells onto a single instance."""

    name = "cse"

    def run(self, netlist: Netlist) -> int:
        changed = 0
        self.touched_nets = set()
        table: Dict[Tuple, Cell] = {}
        for cell in netlist.topological_cells():
            if cell.cell_type is CellType.BUF:
                # BUFs are either primary-output anchors (must stay put) or
                # transparent wires the cleanup pass removes; merging them
                # only churns the anchor structure.
                continue
            signature = _signature(cell)
            original = table.get(signature)
            if original is None:
                table[signature] = cell
                continue
            replacements = {
                port: original.outputs[port]
                for port in cell_output_ports(cell.cell_type)
            }
            self.touched_nets |= retire_cell(netlist, cell, replacements)
            changed += 1
        return changed
