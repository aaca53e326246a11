"""The physical-design driver: fabric -> placement -> wires -> timing.

:func:`place_netlist` glues the subsystem together in the order a real
backend runs it: size (or accept) the fabric, pack an initial placement,
refine it with the seeded annealer, hard-validate the result, then derive
the downstream physical views — per-net wire delays (fed into wire-aware
static timing) and the congestion map.  Each sub-step runs once, under
its own ``place.*`` span (``place.seed`` sizes the fabric, packs the
initial placement and builds the net-pin index all of them share).  The
pre/post-place delays come from :func:`repro.timing.arrival.cached_arrival_times`,
so the wire-aware sweep is the one the flow's timing analysis reuses.  The
returned :class:`PlaceResult` carries the placement object, the wire-delay
map and the summary :class:`~repro.place.report.PlaceReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.place.fabric import FabricGrid, auto_size, site_demand
from repro.place.placer import (
    AnnealStats,
    Placement,
    anneal,
    greedy_initial_placement,
    net_pin_index,
)
from repro.place.report import PlaceReport
from repro.place.validate import check_placement
from repro.place.wires import congestion_map, wire_delays
from repro.tech.library import TechLibrary
from repro.netlist.core import Netlist

#: schema defaults mirrored here so direct API users match the flow
DEFAULT_PLACE_SEED = 1
DEFAULT_PLACE_ITERS = 2000


@dataclass
class PlaceResult:
    """Everything one placement run produced."""

    placement: Placement
    report: PlaceReport
    net_delays: Dict[str, float]
    stats: AnnealStats


def place_netlist(
    netlist: Netlist,
    library: Optional[TechLibrary] = None,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    seed: int = DEFAULT_PLACE_SEED,
    iters: int = DEFAULT_PLACE_ITERS,
) -> PlaceResult:
    """Place ``netlist`` and derive its wire delays and congestion map.

    ``rows``/``cols`` pin the fabric explicitly (raising
    :class:`~repro.errors.PlaceError` when the netlist does not fit); when
    ``None`` the fabric is auto-sized (:func:`repro.place.fabric.auto_size`).
    ``library`` enables the pre/post-place critical-delay comparison; without
    it the report carries geometry metrics only.
    """
    start = time.perf_counter()
    with obs.span("place.seed", cells=netlist.num_cells()):
        sized = auto_size(netlist)
        fabric = FabricGrid(
            rows=sized.rows if rows is None else rows,
            cols=sized.cols if cols is None else cols,
        )
        placement = greedy_initial_placement(netlist, fabric)
        net_pins = net_pin_index(netlist)
        sites_used = site_demand(netlist)
    with obs.span("place.anneal", cells=len(placement.origins), iters=iters):
        stats = anneal(netlist, placement, net_pins, seed=seed, iters=iters)
    with obs.span("place.validate"):
        findings = check_placement(netlist, placement)
    with obs.span("place.wires", nets=len(net_pins)):
        delays = wire_delays(stats.net_hpwl)
    with obs.span("place.congestion"):
        congestion = congestion_map(placement, net_pins)
    pre_delay = post_delay = None
    if library is not None:
        from repro.timing.arrival import cached_arrival_times

        with obs.span("place.timing"):
            pre_delay = round(cached_arrival_times(netlist, library).delay, 9)
            post_delay = round(
                cached_arrival_times(netlist, library, net_delays=delays).delay, 9
            )
    report = PlaceReport(
        fabric_rows=fabric.rows,
        fabric_cols=fabric.cols,
        sites_used=sites_used,
        seed=seed,
        iters=iters,
        moves=stats.moves,
        accepted=stats.accepted,
        initial_hpwl=stats.initial_hpwl,
        total_hpwl=stats.final_hpwl,
        congestion=congestion,
        pre_place_delay_ns=pre_delay,
        post_place_delay_ns=post_delay,
        validation_findings=len(findings),
        elapsed_s=time.perf_counter() - start,
    )
    return PlaceResult(
        placement=placement, report=report, net_delays=delays, stats=stats
    )
