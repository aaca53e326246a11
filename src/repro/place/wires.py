"""Wire-length and wire-delay estimation over a placement.

The annealer prices every net by the half-perimeter of its placed pin
bounding box; :func:`wire_delays` converts those lengths into added net
delays with a linear model (:data:`repro.place.fabric.WIRE_DELAY_NS_PER_SITE`
ns per site pitch).  The resulting per-net delay map plugs straight into
:func:`repro.timing.arrival.compute_arrival_times` via its ``net_delays``
parameter, which is how post-place critical paths come to differ from the
zero-wire pre-place view.

A coarse congestion picture comes from binning the fabric into a small
grid and counting, per bin, how many net bounding boxes overlap it — the
standard probabilistic routing-demand proxy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.place.fabric import WIRE_DELAY_NS_PER_SITE
from repro.place.placer import NetPins, Placement

#: bins per fabric edge in the congestion map (grid is BINS x BINS)
CONGESTION_BINS = 4

#: hotspots reported (densest bins first)
CONGESTION_HOTSPOTS = 3


def wire_delays(
    net_hpwl: Dict[str, float],
    ns_per_site: float = WIRE_DELAY_NS_PER_SITE,
) -> Dict[str, float]:
    """Added delay per net, in ns: the linear HPWL wire model.

    ``net_hpwl`` is per-net HPWL in site units — the annealer's final
    per-net cost (:attr:`repro.place.placer.AnnealStats.net_hpwl`).
    Zero-length nets add no delay and are left out.
    """
    lengths = {name: round(length, 6) for name, length in net_hpwl.items()}
    return {
        name: round(length * ns_per_site, 9)
        for name, length in lengths.items()
        if length > 0.0
    }


def congestion_map(
    placement: Placement,
    net_pins: NetPins,
    bins: int = CONGESTION_BINS,
) -> List[Dict[str, object]]:
    """Routing-demand hotspots: net-bounding-box crossings per fabric bin.

    ``net_pins`` is :func:`repro.place.placer.net_pin_index` of the placed
    netlist.

    Returns the :data:`CONGESTION_HOTSPOTS` densest bins as
    ``{"row_bin", "col_bin", "crossings"}`` records, densest first (ties
    broken by bin position, so the report is deterministic).
    """
    fabric = placement.fabric
    bins = max(1, min(bins, fabric.rows, fabric.cols))
    row_scale = bins / fabric.rows
    col_scale = bins / fabric.cols
    counts: Dict[Tuple[int, int], int] = {}
    origins = placement.origins
    for pins in net_pins.values():
        xs: List[float] = []
        ys: List[float] = []
        for cell, dx, dy in pins:
            row, col = origins[cell]
            xs.append(col + dx)
            ys.append(row + dy)
        lo_rb = min(int(min(ys) * row_scale), bins - 1)
        hi_rb = min(int(max(ys) * row_scale), bins - 1)
        lo_cb = min(int(min(xs) * col_scale), bins - 1)
        hi_cb = min(int(max(xs) * col_scale), bins - 1)
        for row_bin in range(lo_rb, hi_rb + 1):
            for col_bin in range(lo_cb, hi_cb + 1):
                counts[(row_bin, col_bin)] = counts.get((row_bin, col_bin), 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [
        {"row_bin": row_bin, "col_bin": col_bin, "crossings": crossings}
        for (row_bin, col_bin), crossings in ranked[:CONGESTION_HOTSPOTS]
    ]
