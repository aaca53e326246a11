#!/usr/bin/env python3
"""Walkthrough: the physical-design backend (`repro.place`).

Synthesis metrics treat wires as free; placement makes them real.  This
example walks one design through the whole physical pipeline and shows how
geometry feeds back into the timing numbers the rest of the stack tracks:

1. size a fabric for the netlist (``auto_size`` targets 60% utilization),
2. place it — greedy row-scan seed, then seeded simulated annealing on the
   half-perimeter wirelength (HPWL) cost,
3. validate the placement structurally (every cell exactly once, in
   bounds, no overlaps),
4. convert per-net wirelength into lumped wire delays and re-run static
   timing with them — the wire-aware critical path is always at least the
   ideal one, and
5. show the one-line flow spelling (``FlowConfig(place=True)``) that does
   all of the above as a pipeline stage.

Run with:  python examples/placement.py
"""

from repro.api import Flow, FlowConfig
from repro.place import (
    auto_size,
    place_netlist,
    site_demand,
    validate_placement,
)
from repro.tech.default_libs import resolve_library
from repro.timing.arrival import compute_arrival_times
from repro.utils.tables import TextTable

DESIGN = "iir"


def main() -> None:
    # Step 0: a plain synthesis run — the netlist placement starts from.
    base = Flow(FlowConfig()).run(DESIGN)
    lib = resolve_library(base.config.library)
    print(f"synthesized {DESIGN}: {base.cell_count} cells, "
          f"ideal delay {base.delay_ns:.3f} ns")

    # Step 1: fabric sizing.  Footprints are per cell type (an FA is four
    # sites wide), and the auto-sizer picks a near-square grid with head
    # room for the annealer to move cells around.
    fabric = auto_size(base.netlist)
    demand = site_demand(base.netlist)
    print(f"fabric: {fabric.rows}x{fabric.cols} sites "
          f"({demand} demanded, {demand / fabric.capacity:.0%} utilization)")

    # Steps 2-4 in one call: greedy seed, annealing, validation, wire
    # delays, pre/post timing.
    result = place_netlist(base.netlist, library=lib)
    report = result.report
    print(f"placement: hpwl {report.initial_hpwl:.0f} -> "
          f"{report.total_hpwl:.0f} sites "
          f"({report.accepted}/{report.moves} moves accepted)")
    assert validate_placement(base.netlist, result.placement) == []

    # Step 4 unpacked: the wire-aware timing view.
    ideal = compute_arrival_times(base.netlist, lib)
    wired = compute_arrival_times(base.netlist, lib, net_delays=result.net_delays)
    table = TextTable(["view", "critical delay ns"], float_digits=3)
    table.add_row(["ideal (zero-wire)", ideal.delay])
    table.add_row(["wire-aware", wired.delay])
    print()
    print(table.render(title="Timing before and after wire delays"))
    print()

    # Step 5: the same thing as a flow stage — `delay_ns` becomes the
    # wire-aware number and the report rides on the result.
    placed = Flow(FlowConfig(place=True)).run(DESIGN)
    print(placed.place_report.render())
    print()
    print(f"flow delay_ns with place=True: {placed.delay_ns:.3f} ns "
          f"(was {base.delay_ns:.3f} ns)")


if __name__ == "__main__":
    main()
