"""The per-netlist-state analysis caches: ``cached_stats`` and ``cached_arrival_times``.

Both are keyed on :attr:`Netlist.generation` like ``cached_program``; the
plain ``netlist_stats`` / ``compute_arrival_times`` stay the reference the
cached answers are compared against.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.api import Flow, FlowConfig
from repro.designs.registry import list_designs
from repro.netlist.cells import CellType
from repro.netlist.stats import cached_stats, netlist_stats
from repro.tech import generic_035
from repro.timing.arrival import cached_arrival_times, compute_arrival_times

#: the placed, mapped -O2 flow: three distinct netlist states (pre-map,
#: post-map, and post-map with wire delays)
PLACED = FlowConfig(
    opt_level=2,
    target_lib="nand2_basis",
    map_objective="delay",
    place=True,
    place_seed=1,
)

#: sha256 (first 16 hex digits) of each registry design's PLACED outputs —
#: sorted-key JSON of ``timing.arrivals``, ``delay_ns``, ``area`` and the
#: map/place report dicts (without ``elapsed_s``) — as the uncached flow
#: produced them before the analysis caches existed.  A mismatch means the
#: flow's numbers changed; re-pin only with a reason.
UNCACHED_DIGESTS = {
    "x2": "beb3889f5df5eab5",
    "x3": "65d90870bf17269d",
    "x2_plus_x_plus_y": "6de86d513962cef9",
    "square_of_sum": "63b272bab9a0062b",
    "mixed_products": "1b73a2f7ed469baf",
    "iir": "e9a1e3a235718fb1",
    "kalman": "895898a1f7e97738",
    "idct": "24716e9ffc98ea2e",
    "complex": "7305a8cdb2ae88c6",
    "serial_adapter": "d785971f68eebca3",
}


def _counters(tracer, *names):
    return tuple(tracer.counters.get(name, 0.0) for name in names)


def _digest(result):
    mapped = dict(result.map_report.to_dict())
    mapped.pop("elapsed_s")
    payload = json.dumps(
        {
            "arrivals": result.timing.arrivals,
            "delay_ns": result.delay_ns,
            "area": result.area,
            "map": mapped,
            "place": result.place_report.to_dict(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def placed_runs():
    """Every registry design through PLACED, each under its own tracer."""
    runs = {}
    for name in list_designs():
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            runs[name] = (Flow(PLACED).run(name), tracer)
    return runs


class TestStatsCache:
    def test_hit_until_mutation_and_equal_to_the_reference(self, zoo_netlist, library):
        netlist = zoo_netlist
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            first = cached_stats(netlist, library)
            again = cached_stats(netlist, library)
            assert _counters(tracer, "netlist.stats_runs") == (1.0,)
            netlist.add_cell(CellType.NOT, {"a": netlist.primary_inputs[0]})
            grown = cached_stats(netlist, library)
            assert _counters(tracer, "netlist.stats_runs") == (2.0,)
        assert first == again and first is not again
        assert vars(grown) == vars(netlist_stats(netlist, library))
        assert grown.num_cells == first.num_cells + 1

    def test_returned_stats_do_not_alias_the_memo(self, zoo_netlist):
        first = cached_stats(zoo_netlist)
        first.cell_counts.clear()
        assert cached_stats(zoo_netlist) == netlist_stats(zoo_netlist)

    def test_area_is_memoized_per_library_object(self, zoo_netlist):
        one, other = generic_035(), generic_035()
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            priced = cached_stats(zoo_netlist, one)
            assert cached_stats(zoo_netlist, other).area == priced.area
            assert cached_stats(zoo_netlist).area is None
        # one structural pass serves every library; the area is per library
        assert _counters(tracer, "netlist.stats_runs") == (1.0,)
        assert priced.area == netlist_stats(zoo_netlist, one).area
        priced_libraries = [entry[0] for entry in zoo_netlist._stats_memo.areas]
        assert priced_libraries[0] is one and priced_libraries[1] is other


class TestTimingCache:
    def test_hit_returns_the_same_result(self, zoo_netlist, library):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            first = cached_arrival_times(zoo_netlist, library)
            assert cached_arrival_times(zoo_netlist, library) is first
        assert _counters(tracer, "timing.full_runs") == (1.0,)
        assert first.arrivals == compute_arrival_times(zoo_netlist, library).arrivals

    @pytest.mark.parametrize("mutation", ["rebind_input", "remove_cell", "add_cell"])
    def test_every_mutation_recomputes_both_caches(self, zoo_netlist, library, mutation):
        netlist = zoo_netlist
        timing = cached_arrival_times(netlist, library)
        cached_stats(netlist, library)
        if mutation == "rebind_input":
            cell = next(c for c in netlist.cells.values() if c.cell_type is CellType.AND2)
            netlist.rebind_input(cell, "a", netlist.primary_inputs[-1])
        elif mutation == "remove_cell":
            cell = next(c for c in netlist.cells.values() if c.cell_type is CellType.FA)
            netlist.remove_cell(cell)
        else:
            netlist.add_cell(CellType.BUF, {"a": netlist.primary_inputs[0]})
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            retimed = cached_arrival_times(netlist, library)
            restat = cached_stats(netlist, library)
        assert _counters(tracer, "timing.full_runs", "netlist.stats_runs") == (1.0, 1.0)
        assert retimed is not timing
        assert retimed.arrivals == compute_arrival_times(netlist, library).arrivals
        assert vars(restat) == vars(netlist_stats(netlist, library))

    def test_other_library_object_or_delay_map_misses(self, zoo_netlist):
        one, other = generic_035(), generic_035()
        wires = {name: 0.5 for name in zoo_netlist.nets}
        same_wires = dict(wires)
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            base = cached_arrival_times(zoo_netlist, one)
            assert cached_arrival_times(zoo_netlist, other) is not base
            wired = cached_arrival_times(zoo_netlist, one, net_delays=wires)
            assert cached_arrival_times(zoo_netlist, one, net_delays=wires) is wired
            assert cached_arrival_times(zoo_netlist, one, net_delays=same_wires) is not wired
            assert cached_arrival_times(zoo_netlist, one) is base
        assert _counters(tracer, "timing.full_runs") == (4.0,)
        assert wired.delay > base.delay

    def test_non_default_arguments_bypass_the_cache(self, zoo_netlist, library):
        base = cached_arrival_times(zoo_netlist, library)
        late = {zoo_netlist.primary_inputs[0]: 9.0}
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            shifted = compute_arrival_times(zoo_netlist, library, input_arrivals=late)
            updated = compute_arrival_times(
                zoo_netlist, library, previous=base, changed_nets=()
            )
            assert cached_arrival_times(zoo_netlist, library) is base
        # the explicit-arrival sweep ran for real and did not touch the memo;
        # the incremental update is not a full run at all
        assert _counters(tracer, "timing.full_runs") == (1.0,)
        assert shifted.delay > base.delay
        assert updated is not base and updated.arrivals == base.arrivals


class TestFlowAnalyses:
    def test_placed_mapped_flow_analyses_each_state_once(self, placed_runs):
        _, tracer = placed_runs["idct"]
        assert _counters(tracer, "timing.full_runs", "netlist.stats_runs") == (3.0, 3.0)

    def test_generic_unoptimized_flow_analyses_once(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            Flow(FlowConfig()).run("x2")
        assert _counters(tracer, "timing.full_runs", "netlist.stats_runs") == (1.0, 1.0)

    def test_analyses_reuse_the_map_and_place_results(self, placed_runs):
        result, _ = placed_runs["x2_plus_x_plus_y"]
        place = result.stage_artifacts["place"]
        assert result.timing is cached_arrival_times(
            result.netlist, result.map_report.library, net_delays=place.net_delays
        )
        assert result.stats == result.map_report.after
        assert result.map_report.opt_report.after.logic_depth == result.stats.logic_depth

    @pytest.mark.parametrize("name", list_designs())
    def test_cached_outputs_equal_an_uncached_recompute(self, placed_runs, name):
        result, _ = placed_runs[name]
        library = result.map_report.library
        place = result.stage_artifacts["place"]
        fresh = compute_arrival_times(
            result.netlist, library, net_delays=place.net_delays
        )
        assert result.timing.arrivals == fresh.arrivals
        assert result.delay_ns == fresh.delay
        assert vars(result.stats) == vars(netlist_stats(result.netlist, library))
        assert result.map_report.delay_after == compute_arrival_times(
            result.netlist, library
        ).delay
        assert result.place_report.pre_place_delay_ns == round(
            compute_arrival_times(result.netlist, library).delay, 9
        )
        assert result.place_report.post_place_delay_ns == round(fresh.delay, 9)
        assert _digest(result) == UNCACHED_DIGESTS[name]
