"""Benchmark of the synthesis flow: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off and prints one
row per flow (QoR and wall time) before them; ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
metric names, units and directions are the ones in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_sweep", "physical", "explore_sweep")
#: fresh interpreters started per run for each of setup_s and cli_synth_s
PROBES = 9


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Probes:
    """Fresh-interpreter probes behind ``setup_s`` and ``cli_synth_s``.

    The machine's speed drifts over seconds, so the probes are spread over
    the whole measuring window (:meth:`poll` runs the next one when it is
    due, between flows and outside their timing).  Each metric is the median
    of its probes: ``setup_s`` in wall seconds, ``cli_synth_s`` in reference
    seconds of the host clock (see :mod:`hostclock`).
    """

    def __init__(self, seconds: float, cli: bool, clock: HostClock) -> None:
        self.clock = clock
        self.pending = ["setup"] * PROBES
        if cli:
            self.pending = [kind for _ in range(PROBES) for kind in ("setup", "cli")]
        self.interval = seconds / len(self.pending)
        self.due = time.perf_counter()
        self.walls = []
        self.cli_times = []  # (start, wall)
        self.imports, self.libraries = [], []

    def poll(self) -> None:
        if self.pending and time.perf_counter() >= self.due:
            self.due += self.interval
            self._run(self.pending.pop(0))

    def finish(self) -> dict:
        while self.pending:
            self._run(self.pending.pop(0))
        metrics = {
            "setup_s": statistics.median(self.walls),
            "setup.import_s": statistics.median(self.imports),
            "setup.library_s": statistics.median(self.libraries),
        }
        if self.cli_times:
            metrics["cli_synth_s"] = statistics.median(self.clock.ref(*t) for t in self.cli_times)
        return metrics

    def _run(self, kind: str) -> None:
        if kind == "cli":
            # what a user types: a fresh ``python -m repro synth --design x2``
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "repro", "synth", "--design", "x2"],
                cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, check=True,
            )
            self.cli_times.append((start, time.perf_counter() - start))
            self.clock.sample()
            return
        # launch until the probe reports that a flow could be issued
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            self.walls.append(time.perf_counter() - start)
            proc.wait()
        if proc.returncode:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        report = json.loads(line)
        self.imports.append(report["import_s"])
        self.libraries.append(report["library_s"])


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_rows(labels, times, qors) -> None:
    """One row per flow (or sweep point): QoR and cost (fastest time, ref ms)."""
    print(f"{'flow':<44} {'delay_ns':>10} {'area':>10} {'energy':>10} {'hpwl':>10} {'ref_ms':>9}")
    for label, wall, qor in zip(labels, times, qors):
        delay, area, energy, hpwl = qor[:4] if qor else (None,) * 4
        wall_ms = None if wall is None else wall * 1e3
        print(f"{label:<44} {_fmt(delay):>10} {_fmt(area):>10} {_fmt(energy):>10} "
              f"{_fmt(hpwl):>10} {_fmt(wall_ms):>9}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as w
    from spans import Trace

    WORKDIR.mkdir(parents=True, exist_ok=True)
    clock = HostClock()
    probes = Probes(0.0 if trace else seconds, cli=not trace, clock=clock)
    if name == "explore_sweep":
        spec = w.explore_spec(seed)
        if trace:
            recorder = Trace()
            run = w.trace_explore(spec, seed, WORKDIR, recorder)
        else:
            run = w.measure_explore(spec, seconds, seed, WORKDIR, clock, probes.poll)
    else:
        inputs = w.paper_sweep_inputs(seed) if name == "paper_sweep" else w.physical_inputs(seed)
        if trace:
            recorder = Trace()
            run = w.trace_flows(inputs, seed, recorder)
        else:
            run = w.measure_flows(inputs, seconds, seed, clock, probes.poll)
    setup = probes.finish()
    if trace:
        recorder.write(WORKDIR / f"trace-{name}-{seed}.json")
        metrics = run["metrics"]
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.library_s"] = setup["setup.library_s"]
    else:
        print_rows(run["labels"], run["times"], run["qor"])
        metrics = {
            "setup_s": setup["setup_s"],
            "cli_synth_s": setup["cli_synth_s"],
            "flows_per_s": run["flows_per_s"],
            "flow_s_p50": run["flow_s_p50"],
            "flow_s_p90": run["flow_s_p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(w.qor_metrics(run["qor"]))
        print(f"passes {run['passes']}, {len(run['times'])} flows per pass")
    outcome = run["outcome"]
    for error in outcome.errors:
        print(f"FAILED {error}")
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def report(name: str, result: dict, trace: bool) -> dict:
    """Print every metric with its unit and build the final JSON object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    extra = set(result["metrics"]) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {}
    for m in declared:
        # a per-layer metric of a layer this workload does not reach is 0
        value = result["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name} {m['name']} = {value:.6g} {m['unit']}")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{name} fail_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']})")
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
