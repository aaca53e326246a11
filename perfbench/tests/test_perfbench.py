"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import pytest  # noqa: E402

import checker  # noqa: E402
import gen  # noqa: E402
import workloads as w  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Trace  # noqa: E402

from repro.api import Flow, FlowConfig  # noqa: E402
from repro.designs.registry import get_design  # noqa: E402
from repro.netlist.cells import CellType  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _physical_subset(seed):
    return [i for i in w.physical_inputs(seed) if i.design.name == "serial_adapter"]


def test_truth_tables_cover_every_cell_type():
    assert set(checker.TRUTH_TABLES) == {t.value for t in CellType}


def test_checker_accepts_flow_outputs_and_flags_a_broken_copy():
    design = get_design("x3")
    result = Flow(FlowConfig(method="wallace")).run(design)
    reference = checker.Reference(design, seed=1)
    outputs = list(result.output_bus.nets)
    assert checker.check(result.netlist, outputs, reference) is None

    broken = result.netlist.copy()
    victim = next(c for c in broken.cells.values() if c.cell_type is CellType.AND2)
    victim.cell_type = CellType.OR2
    broken_outputs = [broken.nets[n.name] for n in outputs]
    assert checker.check(broken, broken_outputs, reference) is not None


def test_checker_flags_a_broken_mapped_netlist():
    item = _physical_subset(3)[1]
    result = Flow(item.config).run(item.design)
    reference = checker.Reference(item.design, seed=3)
    assert checker.check(result.netlist, list(result.output_bus.nets), reference) is None
    broken = result.netlist.copy()
    victim = next(c for c in broken.cells.values() if c.cell_type is CellType.NAND2)
    victim.cell_type = CellType.NOR2
    outputs = [broken.nets[n.name] for n in result.output_bus.nets]
    assert checker.check(broken, outputs, reference) is not None


def test_generated_designs_follow_the_seed():
    a = [d.title for d in gen.sop_designs(5, 4, 128, "p")]
    assert a == [d.title for d in gen.sop_designs(5, 4, 128, "p")]
    assert a != [d.title for d in gen.sop_designs(6, 4, 128, "p")]
    for design in gen.sop_designs(5, 4, 128, "p"):
        for spec in design.signals.values():
            assert gen.WIDTHS[0] <= spec.width <= gen.WIDTHS[1]


def test_same_seed_gives_identical_qor_and_layer_counts():
    inputs = w.paper_sweep_inputs(4)[::67] + _physical_subset(4)
    runs = [w.measure_flows(inputs, 0.0, 4, HostClock()) for _ in range(2)]
    assert all(r["outcome"].failed == 0 for r in runs)
    assert w.qor_metrics(runs[0]["qor"]) == w.qor_metrics(runs[1]["qor"])
    assert runs[0]["qor"] == runs[1]["qor"]

    def counts():
        run = w.trace_flows(inputs, 4, Trace())
        assert run["outcome"].failed == 0
        return {k: v for k, v in run["metrics"].items() if not k.endswith("_s")}

    assert counts() == counts()


def test_planted_map_delay_moves_only_map_busy_time(monkeypatch):
    inputs = _physical_subset(2)
    delay = 0.3

    def busy():
        metrics = w.trace_flows(inputs, 2, Trace())["metrics"]
        return {k: v for k, v in metrics.items() if k.endswith("busy_s") or k.startswith("analyze.")}

    monkeypatch.delenv("REPRO_STAGE_DELAY", raising=False)
    base = busy()
    monkeypatch.setenv("REPRO_STAGE_DELAY", f"map={delay}")
    slow = busy()
    grew = slow["map.busy_s"] - base["map.busy_s"]
    assert grew == pytest.approx(delay * len(inputs), rel=0.25)
    for name in base:
        if name != "map.busy_s":
            assert abs(slow[name] - base[name]) < 0.05 * len(inputs), name


def test_host_normalization_keeps_a_program_slowdown(monkeypatch):
    inputs = _physical_subset(2)
    delay = 0.3

    def cost():
        return sum(w.measure_flows(inputs, 0.0, 2, HostClock())["times"])

    monkeypatch.delenv("REPRO_STAGE_DELAY", raising=False)
    base = cost()
    monkeypatch.setenv("REPRO_STAGE_DELAY", f"map={delay}")
    # a reference second is at most a few wall seconds on any host that
    # runs the kernel within a few times its reference time
    assert cost() - base > 0.3 * delay * len(inputs)


def test_metric_names_are_well_formed(tmp_path):
    for entry in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    emitted = set(w.trace_flows(_physical_subset(1)[:1], 1, Trace())["metrics"])
    emitted |= set(w.trace_explore(w.SweepSpec(designs=("x2",)), 1, tmp_path, Trace())["metrics"])
    assert emitted <= DECLARED
    assert all(NAME.fullmatch(name) for name in emitted)
