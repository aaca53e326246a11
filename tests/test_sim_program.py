"""Tests for compiled packed-sim programs and the generation-keyed cache."""

import random
import zlib

import pytest

from repro import obs
from repro.designs.registry import get_design, list_designs
from repro.errors import SimulationError
from repro.flows.synthesis import synthesize
from repro.netlist.cells import CellType, cell_output_ports
from repro.netlist.core import Netlist
from repro.sim.evaluator import evaluate_netlist
from repro.sim.program import cached_program, compile_netlist_program
from repro.sim.vectors import random_vectors


def _pack_vectors(vectors):
    """Per-input packed words (bit k of a word = that input in vector k)."""
    packed = {}
    for k, vector in enumerate(vectors):
        for name, bit in vector.items():
            packed[name] = packed.get(name, 0) | ((bit & 1) << k)
    return packed


class TestCompiledProgramSemantics:
    def test_every_celltype_matches_interpreter_exhaustively(self, zoo_netlist):
        netlist = zoo_netlist
        used = {instr[0] for instr in compile_netlist_program(netlist).instructions}
        assert used == {ct.value for ct in CellType}

        vectors = [
            {"a": (i >> 0) & 1, "b": (i >> 1) & 1, "c": (i >> 2) & 1, "d": (i >> 3) & 1}
            for i in range(16)
        ]
        program = cached_program(netlist)
        slots = program.run_packed(_pack_vectors(vectors), (1 << 16) - 1)
        values = program.values_dict(slots)
        for k, vector in enumerate(vectors):
            reference = evaluate_netlist(netlist, vector)
            for name, bit in reference.items():
                assert (values[name] >> k) & 1 == bit, (name, vector)

    @pytest.mark.parametrize("design_name", list_designs())
    def test_registry_designs_match_interpreter(self, design_name):
        design = get_design(design_name)
        result = synthesize(design, method="fa_aot")
        vectors = random_vectors(design.signals, 16, seed=77)

        program = cached_program(result.netlist)
        packed = {}
        for name, bus in result.netlist.input_buses.items():
            for index, net in enumerate(bus.nets):
                word = 0
                for k, vector in enumerate(vectors):
                    word |= ((vector[name] >> index) & 1) << k
                packed[net.name] = word
        slots = program.run_packed(packed, (1 << len(vectors)) - 1)
        values = program.values_dict(slots)

        for k, vector in enumerate(vectors):
            reference = evaluate_netlist(result.netlist, vector)
            for name, bit in reference.items():
                assert (values[name] >> k) & 1 == bit, (name, k)

    def test_missing_primary_input_rejected(self, zoo_netlist):
        netlist = zoo_netlist
        program = cached_program(netlist)
        with pytest.raises(SimulationError, match="missing values"):
            program.run_packed({"a": 1, "b": 0}, 1)

    def test_floating_input_net_rejected_at_compile(self):
        netlist = Netlist("floating")
        a = netlist.add_input("a")
        dangling = netlist.add_net("loose")
        cell = netlist.add_cell(CellType.AND2, {"a": a, "b": dangling})
        with pytest.raises(SimulationError, match="loose.*has no value"):
            compile_netlist_program(netlist)
        assert cell.inputs["b"] is dangling  # netlist untouched by the failure


class TestProgramCache:
    def test_cache_hit_until_mutation(self, zoo_netlist):
        netlist = zoo_netlist
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            first = cached_program(netlist)
            again = cached_program(netlist)
            assert again is first
            netlist.add_cell(
                CellType.NOT, {"a": netlist.primary_inputs[0]}
            )
            rebuilt = cached_program(netlist)
        assert rebuilt is not first
        assert rebuilt.generation > first.generation
        assert tracer.counters["sim.program_compiles"] == 2.0
        assert tracer.counters["sim.program_cache_hits"] == 1.0

    def test_recompile_after_mutation_is_byte_exact_vs_fresh(self):
        # determinism pin: a program recompiled after a real optimization
        # sequence must be identical to one compiled from scratch on an
        # independent structural copy of the same netlist
        from repro.opt.manager import optimize_netlist

        design = get_design("x2_plus_x_plus_y")
        result = synthesize(design, method="wallace")
        netlist = result.netlist
        cached_program(netlist)  # warm the cache pre-mutation
        optimize_netlist(netlist, opt_level=2)

        recompiled = cached_program(netlist)
        fresh = compile_netlist_program(netlist.copy())
        assert recompiled.instructions == fresh.instructions
        assert recompiled.pi_slots == fresh.pi_slots
        assert recompiled.const_slots == fresh.const_slots
        assert recompiled.source == fresh.source

    def test_slot_order_is_pis_then_consts_then_topo_outputs(self, zoo_netlist):
        netlist = zoo_netlist
        program = compile_netlist_program(netlist)
        names = [n.name for n in netlist.primary_inputs]
        assert [name for name, _ in program.pi_slots] == names
        assert [program.slot_of[name] for name in names] == list(range(len(names)))
        cursor = len(names) + len(program.const_slots)
        for cell in netlist.topological_cells():
            for port in cell_output_ports(cell.cell_type):
                assert program.slot_of[cell.outputs[port].name] == cursor
                cursor += 1


class TestTopologicalCache:
    def test_order_cached_until_mutation(self, zoo_netlist):
        netlist = zoo_netlist
        first = netlist.topological_cells()
        assert netlist.topological_cells() is first
        index = netlist.topological_index()
        assert index == {cell.name: i for i, cell in enumerate(first)}
        netlist.add_cell(CellType.BUF, {"a": netlist.primary_inputs[0]})
        second = netlist.topological_cells()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_generation_bumps_on_every_mutation_api(self):
        netlist = Netlist("gen")
        seen = netlist.generation
        a = netlist.add_input("a")
        assert netlist.generation > seen
        seen = netlist.generation
        g = netlist.add_cell(CellType.NOT, {"a": a})
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.set_output(g.outputs["y"])
        assert netlist.generation > seen
        seen = netlist.generation
        h = netlist.add_cell(CellType.BUF, {"a": g.outputs["y"]})
        netlist.replace_net_uses(g.outputs["y"], a)
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.rebind_input(h, "a", g.outputs["y"])
        assert netlist.generation > seen
        seen = netlist.generation
        netlist.remove_cell(h)
        assert netlist.generation > seen


class TestIncrementalTimingFuzz:
    """Incremental STA must equal the full sweep bit-for-bit.

    The pass sequence is randomized per design so the touched-net protocol
    is exercised across constant folding, strength reduction, cleanup, CSE
    and DCE in arbitrary interleavings.
    """

    @pytest.mark.parametrize("design_name", list_designs())
    def test_incremental_equals_full_after_random_pass_sequences(self, design_name):
        from repro.opt.cleanup import CleanupPass
        from repro.opt.constant_fold import ConstantFoldPass
        from repro.opt.cse import CommonSubexpressionPass
        from repro.opt.dce import DeadCellEliminationPass
        from repro.opt.strength import StrengthReductionPass
        from repro.tech.default_libs import generic_035
        from repro.timing.arrival import compute_arrival_times

        library = generic_035()
        design = get_design(design_name)
        netlist = synthesize(design, method="fa_aot").netlist

        passes = [
            ConstantFoldPass(),
            StrengthReductionPass(),
            CleanupPass(),
            CommonSubexpressionPass(),
            DeadCellEliminationPass(),
        ]
        rng = random.Random(zlib.crc32(design_name.encode()))
        timing = compute_arrival_times(netlist, library)
        for _ in range(8):
            rewrite_pass = rng.choice(passes)
            rewrite_pass.run(netlist)
            timing = compute_arrival_times(
                netlist,
                library,
                previous=timing,
                changed_nets=rewrite_pass.touched_nets,
            )
            full = compute_arrival_times(netlist, library)
            assert timing.arrivals == full.arrivals
            assert timing.delay == full.delay
            assert timing.worst_output_net == full.worst_output_net

    @pytest.mark.parametrize("target", ["nand2_basis", "aoi_rich", "lowpower_035"])
    @pytest.mark.parametrize("design_name", list_designs())
    def test_incremental_equals_full_through_technology_mapping(
        self, design_name, target
    ):
        # the mapping pass rewrites far more of the netlist per sweep than
        # any logic-cleanup pass, so it is the stress case for the
        # touched-net protocol; the unit library prices every cell type, so
        # STA stays well-defined on the half-mapped intermediate netlists
        from repro.map.mapper import TechnologyMappingPass
        from repro.opt.cleanup import CleanupPass
        from repro.opt.dce import DeadCellEliminationPass
        from repro.tech.default_libs import unit_library
        from repro.tech.target_libs import resolve_target_library
        from repro.timing.arrival import compute_arrival_times

        library = unit_library()
        netlist = synthesize(get_design(design_name), method="fa_aot").netlist
        timing = compute_arrival_times(netlist, library)
        for rewrite_pass in (
            TechnologyMappingPass(resolve_target_library(target)),
            CleanupPass(),
            DeadCellEliminationPass(),
        ):
            rewrite_pass.run(netlist)
            timing = compute_arrival_times(
                netlist,
                library,
                previous=timing,
                changed_nets=rewrite_pass.touched_nets,
            )
            full = compute_arrival_times(netlist, library)
            assert timing.arrivals == full.arrivals
            assert timing.delay == full.delay
