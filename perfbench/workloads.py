"""The benchmark's workloads: their inputs, timed loops and traced runs.

All three are closed loops with one caller: the next flow (or sweep) is
issued only after the previous one returned.

``paper_sweep``
    The paper's Table 1/2 protocol: every registry design plus
    :data:`PAPER_SOP_DESIGNS` seeded sum-of-products designs, crossed with
    all 8 allocation methods x 4 final adders at -O0 on ``generic_035``,
    with seeded random input probabilities, run one ``Flow.run`` at a time.
    The frontend, reduction, final adder and analyses do all the work; opt,
    map and place are no-ops, so a backend change should move nothing here.
``physical``
    The backend: ``Flow.run`` at -O2 with placement (``place_seed`` from the
    seed) on the five Table 2 designs, each mapped to
    ``nand2_basis`` for delay and to ``aoi_rich`` for area.  Mapping,
    placement and opt with its equivalence-check simulations dominate on
    netlists of up to 17k cells; reduction is under a tenth.
``explore_sweep``
    The explore engine: ``run_sweep(jobs=2)`` over a grid of small and mid
    registry designs x methods x adders, first cold into a fresh cache
    directory (every point computed and written), then again on the same
    spec (every point read back).  Each point takes milliseconds, so
    dispatch, pickling and cache I/O dominate.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.api import Flow, FlowConfig
from repro.api import stages as flow_stages
from repro.designs.base import DatapathDesign
from repro.designs.registry import TABLE1_DESIGN_NAMES, TABLE2_DESIGN_NAMES, get_design
from repro.explore import ResultCache, SweepSpec, run_sweep

import checker
import gen
from hostclock import HostClock
from spans import Trace

METHODS = (
    "fa_aot", "fa_alp", "fa_random", "wallace",
    "dadda", "csa_opt", "column_isolation", "conventional",
)
ADDERS = ("carry_select", "cla", "kogge_stone", "ripple")

#: seeded designs added to the registry ones; 4 x 32 configs is about a
#: tenth of a pass, enough for the seed to matter without dominating
PAPER_SOP_DESIGNS = 4
#: addend-bit budget of a paper_sweep seeded design: between x2_plus_x_plus_y
#: and iir, the range where the allocation methods differ most
PAPER_SOP_BITS = 128
#: (target library, mapping objective) pairs of the physical workload
PHYSICAL_TARGETS = (("nand2_basis", "delay"), ("aoi_rich", "area"))
#: small and mid designs, so each sweep point lasts milliseconds
EXPLORE_DESIGNS = ("x2", "x3", "x2_plus_x_plus_y", "mixed_products", "serial_adapter")
EXPLORE_JOBS = 2
#: untraced/traced cold+warm pairs of the traced explore run
TRACE_ROUNDS = 3
#: host-clock samples after each explore round (rounds last about a second)
CLOCK_SAMPLES = 3

#: flow stage -> layer name (the layers are named after modules)
LAYER_OF_STAGE = {"optimize": "opt"}


@dataclass(frozen=True)
class FlowInput:
    """One flow of a workload: a design and the config to run it with."""

    design: DatapathDesign
    config: FlowConfig

    @property
    def label(self) -> str:
        c = self.config
        if c.place:
            return f"{self.design.name} {c.target_lib}/{c.map_objective}"
        return f"{self.design.name} {c.method}/{c.final_adder}"


def flow_seed(seed: int, *parts: str) -> int:
    """The config seed of one flow, drawn from the workload seed.

    Every flow draws its own input probabilities (and ``fa_random`` its own
    choices), so the QoR means average over many draws and barely move from
    one workload seed to the next.
    """
    return zlib.crc32(" ".join((str(seed),) + parts).encode())


def paper_sweep_inputs(seed: int) -> List[FlowInput]:
    designs = [get_design(n) for n in TABLE1_DESIGN_NAMES]
    designs += gen.sop_designs(seed, PAPER_SOP_DESIGNS, PAPER_SOP_BITS, "p")
    return [
        FlowInput(d, FlowConfig(
            method=m, final_adder=a, random_probabilities=True,
            seed=flow_seed(seed, d.name, m, a),
        ))
        for d in designs
        for m in METHODS
        for a in ADDERS
    ]


def physical_inputs(seed: int) -> List[FlowInput]:
    return [
        FlowInput(d, FlowConfig(
            opt_level=2, target_lib=lib, map_objective=objective, place=True,
            place_seed=seed, random_probabilities=True, seed=flow_seed(seed, d.name, lib),
        ))
        for d in (get_design(n) for n in TABLE2_DESIGN_NAMES)
        for lib, objective in PHYSICAL_TARGETS
    ]


def explore_spec(seed: int) -> SweepSpec:
    # default input probabilities: a sweep has one seed for all its points,
    # and 5 designs' worth of random draws would swing the energy mean by a
    # quarter from seed to seed
    return SweepSpec(
        designs=EXPLORE_DESIGNS, methods=METHODS, final_adders=ADDERS, seeds=(seed,),
    )


# ---------------------------------------------------------------- helpers


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def qor_of(result) -> Tuple:
    """The user-visible results of one flow, compared across runs."""
    hpwl = result.place_report.total_hpwl if result.place_report is not None else None
    return (result.delay_ns, result.area, result.total_energy, hpwl, result.cell_count)


class Outcome:
    """Failures and attempts of one run, with the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class References:
    """Per-design reference vectors, built once and outside timed regions."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._refs: Dict[str, checker.Reference] = {}

    def check(self, design: DatapathDesign, result) -> Optional[str]:
        ref = self._refs.get(design.name)
        if ref is None:
            ref = self._refs[design.name] = checker.Reference(design, self.seed)
        return checker.check(result.netlist, list(result.output_bus.nets), ref)


def warm_up(inputs: List[FlowInput]) -> None:
    """Run the first input of each kind of config once, so lazy set-up is not timed."""
    firsts = {}
    for item in inputs:
        c = item.config
        firsts.setdefault((c.method, c.final_adder, c.opt_level, c.target_lib, c.place), item)
    for item in firsts.values():
        try:
            Flow(item.config).run(item.design)
        except Exception:  # the measured passes record the failure
            pass


# ------------------------------------------------------------ flow workloads


def measure_flows(
    inputs: List[FlowInput], seconds: float, seed: int, clock: HostClock,
    between: Callable[[], None] = lambda: None,
) -> Dict:
    """Issue the inputs in passes until ``seconds`` ran out (one pass at least).

    Each flow is timed alone, in reference seconds of ``clock``; its output
    is checked (once per input, on the first pass) between flows, outside
    the timed region, and later passes must reproduce the first pass's QoR
    exactly.  ``clock`` is polled and ``between`` runs after every flow,
    also outside the timed region.
    """
    warm_up(inputs)
    refs = References(seed)
    outcome = Outcome()
    samples: List[List[Tuple[float, float]]] = [[] for _ in inputs]  # (start, wall)
    qor: List[Optional[Tuple]] = [None] * len(inputs)
    bad = [False] * len(inputs)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i, item in enumerate(inputs):
            if passes and time.perf_counter() >= deadline:
                break
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                result = Flow(item.config).run(item.design)
            except Exception as exc:  # a raising flow is a failed attempt
                outcome.fail(f"{item.label}: {type(exc).__name__}: {exc}")
                bad[i] = True
                continue
            samples[i].append((start, time.perf_counter() - start))
            clock.poll()
            between()
            if qor[i] is None:
                qor[i] = qor_of(result)
                error = refs.check(item.design, result)
                if error:
                    bad[i] = True
                    outcome.fail(f"{item.label}: {error}")
            elif bad[i]:
                outcome.fail(f"{item.label}: wrong output")
            elif qor_of(result) != qor[i]:
                bad[i] = True
                outcome.fail(f"{item.label}: QoR differs between passes")
        passes += 1
    # a flow's cost is its fastest normalized sample: bursts shorter than
    # the host clock's sampling interval only ever add time
    costs = [min(clock.ref(*x) for x in s) if s else None for s in samples]
    times = [t for t in costs if t is not None]
    return {
        "outcome": outcome,
        "passes": passes,
        "labels": [i.label for i in inputs],
        "times": costs,
        "qor": qor,
        "flows_per_s": len(times) / sum(times),
        "flow_s_p50": statistics.median(times),
        "flow_s_p90": quantile(times, 90),
    }


def qor_metrics(qors) -> Dict[str, float]:
    """Geometric means of delay, area and energy over the flows that ran."""
    qors = [q for q in qors if q is not None]
    return {
        "qor_delay_ns_gmean": gmean(q[0] for q in qors),
        "qor_area_gmean": gmean(q[1] for q in qors),
        "qor_energy_gmean": gmean(q[2] for q in qors),
    }


def _stage_wrappers(trace: Trace) -> list:
    """Flow stages wrapped in the benchmark's spans, for ``Flow(stages=...)``.

    A leading marker stage notes when the stage loop starts; each stage span
    then begins where the previous one ended, so it covers the flow's
    hand-over into the stage (where ``REPRO_STAGE_DELAY`` sleeps) as well as
    the stage callable itself.
    """
    clock = {"mark": 0.0}

    def bench_start(context) -> None:
        clock["mark"] = time.perf_counter()

    def wrap(name: str):
        fn = flow_stages.stage(name)
        layer = LAYER_OF_STAGE.get(name, name)

        def run(context) -> None:
            with trace.span(layer, start=clock["mark"]) as record:
                fn(context)
            clock["mark"] = record["end"]

        run.__name__ = name
        return run

    return [bench_start] + [wrap(name) for name in flow_stages.STAGE_ORDER]


@contextmanager
def _traced_analyses(trace: Trace):
    """Temporarily register each analysis pass wrapped in a span."""
    originals = {
        "timing": flow_stages.timing_analysis,
        "power": flow_stages.power_analysis,
        "stats": flow_stages.stats_analysis,
    }

    def wrap(name, fn):
        def run(context):
            with trace.span(f"analyze.{name}"):
                return fn(context)

        return run

    try:
        for name, fn in originals.items():
            flow_stages.register_analysis(name)(wrap(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            flow_stages.register_analysis(name)(fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def flow_counts(r) -> Dict[str, float]:
    """Work counts of the layers one flow went through."""
    c = dict.fromkeys(
        ("addend_bits", "fa", "ha", "iterations", "opt_before", "opt_removed",
         "covered", "mapped_after", "moves", "accepted", "hpwl0", "hpwl"),
        0,
    )
    if r.matrix_build is not None:
        c["addend_bits"] = sum(r.matrix_build.matrix.heights())
    if r.compression is not None:
        c["fa"], c["ha"] = r.compression.fa_count, r.compression.ha_count
    if r.opt_report is not None:
        c["iterations"] = r.opt_report.iterations
        c["opt_before"] = r.opt_report.before.num_cells
        c["opt_removed"] = r.opt_report.cells_removed
    if r.map_report is not None:
        c["covered"] = r.map_report.cells_mapped
        c["mapped_after"] = r.map_report.after.num_cells
    if r.place_report is not None:
        p = r.place_report
        c["moves"], c["accepted"] = p.moves, p.accepted
        c["hpwl0"], c["hpwl"] = p.initial_hpwl, p.total_hpwl
    return c


def layer_counts(counts: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer counts and ratios over a pass's :func:`flow_counts`."""
    c = {key: sum(f[key] for f in counts) for key in counts[0]}
    hpwls = [f["hpwl"] for f in counts if f["hpwl"]]
    return {
        "frontend.addend_bits": c["addend_bits"],
        "reduce.fa_cells": c["fa"],
        "reduce.ha_cells": c["ha"],
        "opt.iterations": c["iterations"],
        "opt.cells_removed_ratio": _ratio(c["opt_removed"], c["opt_before"]),
        "map.cells_covered": c["covered"],
        "map.cells_after": c["mapped_after"],
        "place.moves": c["moves"],
        "place.accept_ratio": _ratio(c["accepted"], c["moves"]),
        "place.hpwl_gain_ratio": _ratio(c["hpwl0"] - c["hpwl"], c["hpwl0"]),
        "place.hpwl_gmean": gmean(hpwls) if hpwls else 0.0,
    }


def sim_counts(counters: Dict[str, float]) -> Dict[str, float]:
    compiles = counters.get("sim.program_compiles", 0)
    hits = counters.get("sim.program_cache_hits", 0)
    return {
        "sim.program_compiles": compiles,
        "sim.program_cache_hit_ratio": _ratio(hits, hits + compiles),
    }


def trace_flows(inputs: List[FlowInput], seed: int, trace: Trace) -> Dict:
    """Run every flow untraced and traced; per-layer metrics from the traced runs.

    The traced runs wrap every stage and analysis in the benchmark's spans
    and run under a ``repro.obs`` tracer for the program's own counters.
    Their outputs are checked and must match the untraced runs' QoR.
    """
    warm_up(inputs)
    refs = References(seed)
    outcome = Outcome()
    untraced_s = 0.0
    tracer = obs.Tracer()
    counts = []
    for i, item in enumerate(inputs):
        trace.flow = i
        outcome.attempted += 1

        def plain():
            nonlocal untraced_s
            start = time.perf_counter()
            result = Flow(item.config).run(item.design)
            untraced_s += time.perf_counter() - start
            return result

        def traced():
            with obs.tracing(tracer), _traced_analyses(trace), trace.span("flow"):
                return Flow(item.config, stages=_stage_wrappers(trace)).run(item.design)

        try:
            # the second run of a flow finds warm caches, so the order
            # alternates and the overhead is not biased either way
            if i % 2:
                result, untraced = traced(), qor_of(plain())
            else:
                untraced, result = qor_of(plain()), traced()
        except Exception as exc:  # a raising flow is a failed attempt
            outcome.fail(f"{item.label}: {type(exc).__name__}: {exc}")
            continue
        error = refs.check(item.design, result)
        if error or qor_of(result) != untraced:
            outcome.fail(f"{item.label}: {error or 'traced QoR differs'}")
        counts.append(flow_counts(result))
    busy = trace.self_times()
    traced_s = trace.wall("flow")
    metrics = {
        "flow.self_s": busy.get("flow", 0.0),
        "frontend.busy_s": busy.get("frontend", 0.0),
        "reduce.busy_s": busy.get("reduce", 0.0),
        "final_adder.busy_s": busy.get("final_adder", 0.0),
        "opt.busy_s": busy.get("opt", 0.0),
        "map.busy_s": busy.get("map", 0.0),
        "place.busy_s": busy.get("place", 0.0),
        "analyze.timing_s": busy.get("analyze.timing", 0.0),
        "analyze.power_s": busy.get("analyze.power", 0.0),
        "analyze.stats_s": busy.get("analyze.stats", 0.0),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics.update(layer_counts(counts))
    metrics.update(sim_counts(tracer.counters))
    return {"outcome": outcome, "metrics": metrics}


# ------------------------------------------------------------ explore sweep


def _sweep_qor(sweep) -> List[Optional[Tuple]]:
    """:func:`qor_of` of every point's record (``None`` where it failed)."""
    return [
        (m["delay_ns"], m["area"], m["total_energy"], m["place_hpwl"], m["cell_count"])
        if m is not None else None
        for m in (o.metrics for o in sweep.outcomes)
    ]


def warm_up_sweep() -> None:
    """A two-point parallel sweep, so imports and the first pool are not timed."""
    run_sweep(SweepSpec(designs=("x2",), methods=METHODS[:2]), jobs=EXPLORE_JOBS)


def _check_sweep(sweep, expected_hits: int, outcome: Outcome, tag: str) -> None:
    outcome.attempted += len(sweep.outcomes)
    for o in sweep.failures:
        outcome.fail(f"{tag} {o.point.label()}: {o.error}")
    if sweep.cache_hits != expected_hits:
        outcome.fail(f"{tag}: {sweep.cache_hits} cache hits, expected {expected_hits}")


def check_points(spec: SweepSpec, recorded: List[Optional[Tuple]], seed: int, outcome: Outcome) -> None:
    """Re-run every point directly and check it against the sweep's record."""
    refs = References(seed)
    for point, qor in zip(spec.expand(), recorded):
        design = get_design(point.design)
        result = Flow(point.config()).run(design)
        error = refs.check(design, result)
        if error or qor_of(result) != qor:
            outcome.fail(f"{point.label()}: {error or 'sweep record differs from a direct run'}")


def _sweeps(spec: SweepSpec, workdir, warm_runs: int, trace: Optional[Trace] = None):
    """A cold sweep into a fresh cache directory, then ``warm_runs`` re-runs.

    Returns the cold result, the warm results, and ``(start, wall)`` of each.
    With a ``trace``, the cache's reads and writes and each sweep are spans.
    """
    cache_dir = tempfile.mkdtemp(dir=workdir)
    cache = cache_dir if trace is None else TimedCache(cache_dir, trace)
    times, results = [], []
    try:
        for i in range(1 + warm_runs):
            name = "explore.cold" if i == 0 else "explore.warm"
            with trace.span(name) if trace is not None else nullcontext():
                start = time.perf_counter()
                results.append(run_sweep(spec, jobs=EXPLORE_JOBS, cache=cache))
                times.append((start, time.perf_counter() - start))
    finally:
        shutil.rmtree(cache_dir)
    return results[0], results[1:], times[0], times[1:]


def _check_pair(cold, warms, outcome: Outcome) -> None:
    n = len(cold.outcomes)
    _check_sweep(cold, 0, outcome, "cold")
    for warm in warms:
        _check_sweep(warm, n, outcome, "warm")
        if _sweep_qor(warm) != _sweep_qor(cold):
            outcome.fail("warm sweep records differ from the cold sweep")


def measure_explore(
    spec: SweepSpec, seconds: float, seed: int, workdir, clock: HostClock,
    between: Callable[[], None] = lambda: None,
) -> Dict:
    """Rounds of a cold sweep into a fresh cache and a warm re-run, until time runs out.

    The warm re-run is checked, not timed (``--trace 1`` times the cache).
    Rates and point times are in reference seconds of ``clock``, which
    samples the host between the rounds, where ``between`` runs too.
    """
    warm_up_sweep()
    n = len(spec.expand())
    outcome = Outcome()
    rounds = []
    elapsed: List[List[float]] = [[] for _ in range(n)]
    first: Optional[List[Tuple]] = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        cold, warms, cold_time, _ = _sweeps(spec, workdir, 1)
        for _ in range(CLOCK_SAMPLES):
            clock.sample()
        between()
        rounds.append((cold_time, [o.elapsed_s for o in cold.outcomes]))
        _check_pair(cold, warms, outcome)
        qor = _sweep_qor(cold)
        if first is None:
            first = qor
        elif qor != first:
            outcome.fail("cold sweep records differ between passes")
    cold_rates = []
    for cold_time, point_times in rounds:
        cold_rates.append(n / clock.ref(*cold_time))
        scale = clock.scale(cold_time[0] + cold_time[1] / 2)
        for i, t in enumerate(point_times):
            elapsed[i].append(t * scale)
    check_points(spec, first, seed, outcome)
    times = [min(e) for e in elapsed]
    return {
        "outcome": outcome,
        "passes": len(cold_rates),
        "labels": [p.label() for p in spec.expand()],
        "times": times,
        "qor": first,
        "flows_per_s": statistics.median(cold_rates),
        "flow_s_p50": statistics.median(times),
        "flow_s_p90": quantile(times, 90),
    }


class TimedCache(ResultCache):
    """A result cache whose reads and writes are spans of the trace."""

    def __init__(self, directory, trace: Trace) -> None:
        super().__init__(directory)
        self.trace = trace

    def get(self, point):
        with self.trace.span("cache.read"):
            return super().get(point)

    def put(self, point, metrics, telemetry=None):
        with self.trace.span("cache.write"):
            return super().put(point, metrics, telemetry=telemetry)


#: repro.obs span -> layer, for the flows that run inside sweep workers
_WORKER_LAYERS = {
    "flow.frontend": "frontend.busy_s",
    "flow.reduce": "reduce.busy_s",
    "flow.final_adder": "final_adder.busy_s",
    "flow.optimize": "opt.busy_s",
    "flow.map": "map.busy_s",
    "flow.place": "place.busy_s",
    "analyze.timing": "analyze.timing_s",
    "analyze.power": "analyze.power_s",
    "analyze.stats": "analyze.stats_s",
}


def trace_explore(spec: SweepSpec, seed: int, workdir, trace: Trace) -> Dict:
    """Alternate untraced and traced cold+warm pairs; layers from the last traced one.

    Flows run in worker processes the benchmark cannot wrap, so their stage
    times come from the ``repro.obs`` spans the workers ship back.  The
    overhead is the median traced pair's wall time minus the median
    untraced pair's.
    """
    warm_up_sweep()
    n = len(spec.expand())
    outcome = Outcome()
    untraced, traced = [], []
    for _ in range(TRACE_ROUNDS):
        plain, plain_warm, (_, cold_s), [(_, warm_s)] = _sweeps(spec, workdir, 1)
        untraced.append(cold_s + warm_s)
        _check_pair(plain, plain_warm, outcome)
        trace.spans.clear()
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            cold, warms, (_, cold_s), [(_, warm_s)] = _sweeps(spec, workdir, 1, trace)
        traced.append(cold_s + warm_s)
        _check_pair(cold, warms, outcome)
        if _sweep_qor(cold) != _sweep_qor(plain):
            outcome.fail("traced sweep records differ from the untraced ones")
    busy = sum(o.elapsed_s for o in cold.outcomes)
    reads = [s for s in trace.spans if s["name"] == "cache.read"]
    writes = [s for s in trace.spans if s["name"] == "cache.write"]
    metrics = dict.fromkeys(_WORKER_LAYERS.values(), 0.0)
    for span in tracer.spans:
        if span["name"] in _WORKER_LAYERS:
            metrics[_WORKER_LAYERS[span["name"]]] += span["dur"]
    metrics.update({
        "explore.point_busy_s": busy,
        "explore.dispatch_overhead_s": cold_s - busy / cold.jobs,
        "explore.parallel_efficiency": busy / (cold_s * cold.jobs),
        "cache.points_per_s": n / warm_s,
        "cache.hit_ratio": warms[0].cache_hits / n,
        "cache.read_s_per_point": sum(s["end"] - s["start"] for s in reads) / len(reads),
        "cache.write_s_per_point": sum(s["end"] - s["start"] for s in writes) / len(writes),
        "trace.untraced_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    metrics.update(sim_counts(tracer.counters))
    return {"outcome": outcome, "metrics": metrics}
