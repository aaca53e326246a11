"""Seeded simulated-annealing placement over the fabric grid.

The placer is fully deterministic: a greedy row-scan packs the cells in
topological order (connected logic starts out adjacent), then a
simulated-annealing refinement with a geometric cooling schedule proposes
``place_iters`` random *relocate* (move one cell to a free span) and *swap*
(exchange two equal-footprint cells) moves, accepting by the Metropolis
criterion on the half-perimeter-wirelength (HPWL) cost.  All randomness
comes from one ``random.Random(seed)``, so the same
``(netlist, fabric, seed, iters)`` quadruple always yields the byte-same
placement.

HPWL is evaluated incrementally — a move re-prices only the nets touching
the moved cells — which keeps a move proposal O(pins of the moved cells)
and the whole refinement linear in ``place_iters``.  A move prices its
nets from scratch and a commit stores those prices, so the final per-net
costs equal a fresh HPWL of each net exactly; downstream wire delays read
them directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PlaceError
from repro.netlist.core import Netlist
from repro.place.fabric import FabricGrid, footprint, pin_offsets

#: per-net placed pins: net name -> ``(cell, dx, dy)`` triples
NetPins = Dict[str, List[Tuple[str, float, float]]]

#: cooling schedule endpoints: the temperature decays geometrically from
#: ``_T_START_SCALE`` x (mean net HPWL) down to ``_T_END`` over the run
_T_START_SCALE = 0.5
_T_END = 0.01


@dataclass
class Placement:
    """A cell -> origin-site assignment on one :class:`FabricGrid`.

    ``origins`` maps cell names to ``(row, col)`` origin sites; the cell
    occupies ``footprint(cell_type)`` contiguous sites from there.  The
    placement never references nets — connectivity stays in the netlist.
    """

    fabric: FabricGrid
    origins: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def pin_position(
        self, cell_name: str, dx: float, dy: float
    ) -> Tuple[float, float]:
        """Absolute ``(x, y)`` of a pin given its declarative offset."""
        row, col = self.origins[cell_name]
        return (col + dx, row + dy)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-able view (cells sorted by name)."""
        return {
            "fabric": self.fabric.to_dict(),
            "cells": {
                name: [row, col]
                for name, (row, col) in sorted(self.origins.items())
            },
        }


@dataclass
class AnnealStats:
    """What the refinement did: move counts and the cost trajectory.

    ``net_hpwl`` is the final per-net HPWL (the annealer's incremental cost,
    equal to a from-scratch HPWL of every net).
    """

    moves: int = 0
    accepted: int = 0
    swaps: int = 0
    relocations: int = 0
    initial_hpwl: float = 0.0
    final_hpwl: float = 0.0
    net_hpwl: Dict[str, float] = field(default_factory=dict)


def _occupancy(netlist: Netlist, placement: Placement) -> List[List[Optional[str]]]:
    """Site-occupancy grid of a placement (cell name or ``None`` per site)."""
    grid: List[List[Optional[str]]] = [
        [None] * placement.fabric.cols for _ in range(placement.fabric.rows)
    ]
    for name, (row, col) in placement.origins.items():
        width = footprint(netlist.cells[name].cell_type)
        for offset in range(width):
            grid[row][col + offset] = name
    return grid


def greedy_initial_placement(netlist: Netlist, fabric: FabricGrid) -> Placement:
    """Row-scan packing in topological order (the annealer's starting point).

    Raises :class:`PlaceError` when the fabric cannot hold the netlist.
    """
    placement = Placement(fabric=fabric)
    row, col = 0, 0
    for cell in netlist.topological_cells():
        width = footprint(cell.cell_type)
        if width > fabric.cols:
            raise PlaceError(
                f"cell {cell.name!r} ({cell.cell_type}) is {width} sites wide "
                f"but the fabric has only {fabric.cols} column(s)"
            )
        if col + width > fabric.cols:
            row, col = row + 1, 0
        if row >= fabric.rows:
            raise PlaceError(
                f"fabric {fabric.rows}x{fabric.cols} is too small for "
                f"{netlist.name!r}: ran out of rows after placing "
                f"{len(placement.origins)} of {netlist.num_cells()} cells"
            )
        placement.origins[cell.name] = (row, col)
        col += width
    return placement


def net_pin_index(netlist: Netlist) -> NetPins:
    """Per-net placed pins as ``(cell, dx, dy)`` triples (>= 2 pins only).

    Primary inputs/outputs have no site, so a net's wirelength is the
    half-perimeter over its *cell* pins; nets touching fewer than two cell
    pins contribute nothing and are dropped here.  The index depends on
    connectivity alone, so one build serves every view of a placement.
    """
    pins: NetPins = {}
    for cell in netlist.cells.values():
        offsets = pin_offsets(cell.cell_type)
        for port, net in cell.inputs.items():
            dx, dy = offsets[port]
            pins.setdefault(net.name, []).append((cell.name, dx, dy))
        for port, net in cell.outputs.items():
            dx, dy = offsets[port]
            pins.setdefault(net.name, []).append((cell.name, dx, dy))
    return {name: plist for name, plist in pins.items() if len(plist) >= 2}


def _hpwl(
    pins: List[Tuple[str, float, float]], origins: Dict[str, Tuple[int, int]]
) -> float:
    """Half-perimeter of the bounding box of one net's pins."""
    first_cell, dx, dy = pins[0]
    row, col = origins[first_cell]
    min_x = max_x = col + dx
    min_y = max_y = row + dy
    for cell, dx, dy in pins[1:]:
        row, col = origins[cell]
        x, y = col + dx, row + dy
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    return (max_x - min_x) + (max_y - min_y)


def total_hpwl(netlist: Netlist, placement: Placement) -> float:
    """Total half-perimeter wirelength of a placement, in site units."""
    origins = placement.origins
    return sum(
        _hpwl(pins, origins) for pins in net_pin_index(netlist).values()
    )


def anneal(
    netlist: Netlist,
    placement: Placement,
    net_pins: NetPins,
    seed: int,
    iters: int,
) -> AnnealStats:
    """Refine ``placement`` in place with ``iters`` seeded annealing moves.

    ``net_pins`` is :func:`net_pin_index` of ``netlist``.  A netlist with
    no cells has nothing to move: the stats report zero moves.
    """
    fabric = placement.fabric
    origins = placement.origins
    occupancy = _occupancy(netlist, placement)
    cell_nets: Dict[str, List[str]] = {name: [] for name in origins}
    for net_name, pins in net_pins.items():
        for cell, _, _ in pins:
            if net_name not in cell_nets[cell]:
                cell_nets[cell].append(net_name)
    net_cost = {name: _hpwl(pins, origins) for name, pins in net_pins.items()}
    total = sum(net_cost.values())
    stats = AnnealStats(initial_hpwl=round(total, 6), net_hpwl=net_cost)

    cells = sorted(origins)
    if not cells:
        return stats
    widths = {name: footprint(netlist.cells[name].cell_type) for name in cells}
    by_width: Dict[int, List[str]] = {}
    for name in cells:
        by_width.setdefault(widths[name], []).append(name)

    rng = random.Random(seed)
    t_start = max(_T_END, _T_START_SCALE * total / max(1, len(net_pins)))
    decay = (_T_END / t_start) ** (1.0 / max(1, iters))
    temperature = t_start

    def span_free(row: int, col: int, width: int, ignore: str) -> bool:
        row_sites = occupancy[row]
        return all(
            row_sites[col + offset] in (None, ignore) for offset in range(width)
        )

    for _ in range(iters):
        stats.moves += 1
        if len(cells) >= 2 and rng.random() < 0.5:
            # swap two equal-footprint cells
            a = cells[rng.randrange(len(cells))]
            group = by_width[widths[a]]
            b = group[rng.randrange(len(group))]
            if a == b:
                temperature *= decay
                continue
            old_a, old_b = origins[a], origins[b]
            origins[a], origins[b] = old_b, old_a
            trial, delta = _reprice(net_pins, cell_nets, net_cost, origins, (a, b))
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                net_cost.update(trial)
                width = widths[a]
                for offset in range(width):
                    occupancy[old_a[0]][old_a[1] + offset] = b
                    occupancy[old_b[0]][old_b[1] + offset] = a
                stats.accepted += 1
                stats.swaps += 1
            else:
                origins[a], origins[b] = old_a, old_b
        else:
            # relocate one cell to a random free span
            cell = cells[rng.randrange(len(cells))]
            width = widths[cell]
            row = rng.randrange(fabric.rows)
            col = rng.randrange(fabric.cols - width + 1)
            if not span_free(row, col, width, cell):
                temperature *= decay
                continue
            old = origins[cell]
            origins[cell] = (row, col)
            trial, delta = _reprice(net_pins, cell_nets, net_cost, origins, (cell,))
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                net_cost.update(trial)
                # free the old span first: it may overlap the new one
                for offset in range(width):
                    occupancy[old[0]][old[1] + offset] = None
                for offset in range(width):
                    occupancy[row][col + offset] = cell
                stats.accepted += 1
                stats.relocations += 1
            else:
                origins[cell] = old
        temperature *= decay

    stats.final_hpwl = round(sum(net_cost.values()), 6)
    return stats


def _reprice(
    net_pins: NetPins,
    cell_nets: Dict[str, List[str]],
    net_cost: Dict[str, float],
    origins: Dict[str, Tuple[int, int]],
    moved: Tuple[str, ...],
) -> Tuple[Dict[str, float], float]:
    """Fresh HPWL of the moved cells' nets and the move's cost change.

    ``origins`` already holds the tentative move; committing it stores the
    returned costs in ``net_cost``.
    """
    affected = dict.fromkeys(net for cell in moved for net in cell_nets[cell])
    trial = {name: _hpwl(net_pins[name], origins) for name in affected}
    return trial, sum(cost - net_cost[name] for name, cost in trial.items())
