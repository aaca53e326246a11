"""Netlist statistics: cell counts, area, logic depth.

Area is computed against a technology library (see :mod:`repro.tech`); the
structural statistics (counts, depth) are library-independent.

:func:`netlist_stats` always recomputes and is the reference;
:func:`cached_stats` is what the flow calls: it counts cells and measures
the logic depth once per netlist :attr:`~repro.netlist.core.Netlist.generation`
and sums the area once per library object, the way
:func:`repro.sim.program.cached_program` compiles once per generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist


@dataclass
class NetlistStats:
    """Summary statistics of a netlist."""

    name: str
    cell_counts: Dict[str, int] = field(default_factory=dict)
    num_cells: int = 0
    num_nets: int = 0
    num_inputs: int = 0
    num_outputs: int = 0
    logic_depth: int = 0
    area: Optional[float] = None

    def count(self, cell_type: CellType) -> int:
        """Number of instances of ``cell_type``."""
        return self.cell_counts.get(cell_type.value, 0)

    def summary(self) -> str:
        """One-line human-readable summary."""
        counts = ", ".join(f"{k}:{v}" for k, v in sorted(self.cell_counts.items()))
        area_text = f", area={self.area:.1f}" if self.area is not None else ""
        return (
            f"{self.name}: {self.num_cells} cells ({counts}), depth={self.logic_depth}"
            f"{area_text}"
        )


def logic_depth(netlist: Netlist) -> int:
    """Maximum number of cells on any input-to-output path."""
    depth: Dict[str, int] = {}
    best = 0
    for cell in netlist.topological_cells():
        level = 0
        for net in cell.inputs.values():
            if net.driver is not None:
                level = max(level, depth.get(net.driver[0].name, 0))
        level += 1
        depth[cell.name] = level
        best = max(best, level)
    return best


def _structure(netlist: Netlist) -> Tuple[Dict[str, int], int]:
    """Cell counts by type and logic depth (one ``netlist.stats_runs``)."""
    obs.counter("netlist.stats_runs")
    counts: Dict[str, int] = {}
    for cell in netlist.cells.values():
        counts[cell.cell_type.value] = counts.get(cell.cell_type.value, 0) + 1
    return counts, logic_depth(netlist)


def _area(netlist: Netlist, library: Optional[object]) -> Optional[float]:
    """Total cell area against ``library``, summed in cell order."""
    if library is None:
        return None
    area = 0.0
    for cell in netlist.cells.values():
        area += library.area(cell.cell_type)
    return area


def _assemble(
    netlist: Netlist, counts: Dict[str, int], depth: int, area: Optional[float]
) -> NetlistStats:
    return NetlistStats(
        name=netlist.name,
        cell_counts=dict(counts),
        num_cells=len(netlist.cells),
        num_nets=len(netlist.nets),
        num_inputs=len(netlist.primary_inputs),
        num_outputs=len(netlist.primary_outputs),
        logic_depth=depth,
        area=area,
    )


def netlist_stats(netlist: Netlist, library: Optional[object] = None) -> NetlistStats:
    """Compute :class:`NetlistStats` for ``netlist``.

    ``library`` may be a :class:`repro.tech.TechLibrary`; when provided, total
    cell area is included.
    """
    counts, depth = _structure(netlist)
    return _assemble(netlist, counts, depth, _area(netlist, library))


@dataclass
class _StatsMemo:
    """What :func:`cached_stats` keeps for one netlist generation."""

    generation: int
    counts: Dict[str, int]
    depth: int
    #: (library, its area) per library object priced so far
    areas: List[Tuple[object, float]] = field(default_factory=list)


def cached_stats(netlist: Netlist, library: Optional[object] = None) -> NetlistStats:
    """:func:`netlist_stats`, computed once per netlist state.

    The counts and the depth are memoized on the netlist object for its
    current :attr:`~repro.netlist.core.Netlist.generation`, the area per
    library object (compared by identity and held by reference).  The
    next structural mutation bumps the generation, and the next call then
    drops the memo and recomputes, so a stale count is never returned.
    Every call returns a fresh :class:`NetlistStats` equal to what
    :func:`netlist_stats` returns.
    """
    memo = getattr(netlist, "_stats_memo", None)
    if memo is None or memo.generation != netlist.generation:
        memo = _StatsMemo(netlist.generation, *_structure(netlist))
        netlist._stats_memo = memo
    area = next((area for priced, area in memo.areas if priced is library), None)
    if area is None and library is not None:
        area = _area(netlist, library)
        memo.areas.append((library, area))
    return _assemble(netlist, memo.counts, memo.depth, area)
