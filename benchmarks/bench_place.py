"""Benchmark: the physical-design subsystem (`repro.place`).

For every registry design, places the FA_AOT netlist onto the auto-sized
fabric with the default annealing schedule and reports placement wall-time,
the HPWL improvement over the greedy seed and the wire-aware delay delta.
The assertions pin the contract: every placement must validate with zero
findings, annealing must never end worse than the greedy seed, and one full
placement must stay interactive (< 5 s per design — the annealer is linear
in iterations with O(pins-per-net) move re-pricing; a superlinear regression
trips this first).

Run directly (``pytest benchmarks/bench_place.py``) or through the
aggregator (``python -m benchmarks --only place``), which emits one JSON
summary line.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from benchmarks.conftest import save_report
from repro.designs.registry import get_design, list_designs
from repro.flows.synthesis import synthesize
from repro.place import place_netlist, validate_placement
from repro.utils.tables import TextTable

_RESULTS: List[Dict] = []

#: per-design wall-time ceiling for one full placement (greedy + anneal +
#: validation, wire delays, congestion and pre/post timing)
_TIME_BUDGET_S = 5.0


@pytest.mark.parametrize("design_name", list_designs())
def test_place_design(benchmark, design_name, library):
    baseline = synthesize(get_design(design_name), method="fa_aot", library=library)

    start = time.perf_counter()
    result = place_netlist(baseline.netlist, library=library)
    elapsed = time.perf_counter() - start

    report = result.report
    assert validate_placement(baseline.netlist, result.placement) == []
    assert report.validation_findings == 0
    assert report.total_hpwl <= report.initial_hpwl

    assert elapsed < _TIME_BUDGET_S, f"{design_name}: placement took {elapsed:.2f}s"

    _RESULTS.append(
        {
            "design": design_name,
            "cells": baseline.netlist.num_cells(),
            "fabric": f"{report.fabric_rows}x{report.fabric_cols}",
            "hpwl_initial": report.initial_hpwl,
            "hpwl_final": report.total_hpwl,
            "delay_pre": report.pre_place_delay_ns,
            "delay_post": report.post_place_delay_ns,
            "place_s": elapsed,
        }
    )


def test_place_report(benchmark):
    if len(_RESULTS) != len(list_designs()):
        pytest.skip("per-design results missing (deselected or reordered run)")

    table = TextTable(
        ["design", "cells", "fabric", "hpwl", "delay ns", "place ms"],
        float_digits=3,
    )
    for row in _RESULTS:
        table.add_row(
            [
                row["design"],
                row["cells"],
                row["fabric"],
                f"{row['hpwl_initial']:.0f} -> {row['hpwl_final']:.0f}",
                f"{row['delay_pre']:.3f} -> {row['delay_post']:.3f}",
                row["place_s"] * 1e3,
            ]
        )
    save_report(
        "bench_place",
        table.render(title="Placement: HPWL and wire-aware delay per design"),
    )
