"""Tests for probability propagation, switching activity and power estimation."""

import itertools
import random

import pytest

from repro.bitmatrix.builder import build_addend_matrix
from repro.core.fa_alp import fa_alp
from repro.core.power_model import (
    FAPowerModel,
    fa_output_probabilities,
    ha_output_probabilities,
)
from repro.errors import NetlistError
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType, cell_input_ports
from repro.netlist.core import Netlist
from repro.power.probability import propagate_probabilities
from repro.power.report import power_report
from repro.power.switching import compressor_tree_switching_energy, estimate_power
from repro.sim.evaluator import evaluate_netlist


def _exact_probability(netlist, target, input_probabilities):
    """Exhaustively enumerate input combinations, weighting by probability."""
    inputs = netlist.primary_inputs
    total = 0.0
    for values in itertools.product((0, 1), repeat=len(inputs)):
        weight = 1.0
        assignment = {}
        for net, value in zip(inputs, values):
            probability = input_probabilities[net.name]
            weight *= probability if value else (1.0 - probability)
            assignment[net.name] = value
        simulated = evaluate_netlist(netlist, assignment)
        total += weight * simulated[target.name]
    return total


class TestProbabilityPropagation:
    def test_gate_probabilities(self):
        netlist = Netlist("gates")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        and_gate = netlist.add_cell(CellType.AND2, {"a": a, "b": b})
        or_gate = netlist.add_cell(CellType.OR2, {"a": a, "b": b})
        xor_gate = netlist.add_cell(CellType.XOR2, {"a": a, "b": b})
        inv = netlist.add_cell(CellType.NOT, {"a": a})
        result = propagate_probabilities(netlist, {"a": 0.2, "b": 0.4})
        assert result.probability_of(and_gate.outputs["y"]) == pytest.approx(0.08)
        assert result.probability_of(or_gate.outputs["y"]) == pytest.approx(0.52)
        assert result.probability_of(xor_gate.outputs["y"]) == pytest.approx(0.44)
        assert result.probability_of(inv.outputs["y"]) == pytest.approx(0.8)
        assert result.switching_of(inv.outputs["y"]) == pytest.approx(0.16)

    def test_constants(self):
        netlist = Netlist("consts")
        a = netlist.add_input("a")
        gate = netlist.add_cell(CellType.AND2, {"a": a, "b": netlist.const(1)})
        result = propagate_probabilities(netlist, {"a": 0.3})
        assert result.probability_of(netlist.const(1)) == 1.0
        assert result.probability_of(gate.outputs["y"]) == pytest.approx(0.3)

    def test_exact_on_tree_without_reconvergence(self):
        """On a fanout-free tree the independence assumption is exact."""
        expression = parse_expression("x + y + z")
        probabilities = {"x": 0.15, "y": 0.6, "z": 0.85}
        signals = {
            name: SignalSpec(name, 2, probability=p) for name, p in probabilities.items()
        }
        build = build_addend_matrix(expression, signals, 4)
        fa_alp(build.netlist, build.matrix)
        propagated = propagate_probabilities(build.netlist)
        input_probabilities = {
            net.name: float(net.attributes["probability"])
            for net in build.netlist.primary_inputs
        }
        for cell in build.netlist.cells.values():
            for out in cell.output_nets():
                exact = _exact_probability(build.netlist, out, input_probabilities)
                assert propagated.probability_of(out) == pytest.approx(exact, abs=1e-9)

    @staticmethod
    def _random_single_cell_runs(cell_type, runs):
        """Yield (netlist, cell, input probabilities, result) for random inputs."""
        rng = random.Random(cell_type.value)
        netlist = Netlist("one_cell")
        ports = cell_input_ports(cell_type)
        cell = netlist.add_cell(cell_type, {p: netlist.add_input(p) for p in ports})
        for _ in range(runs):
            input_probabilities = {p: rng.random() for p in ports}
            result = propagate_probabilities(netlist, input_probabilities)
            yield netlist, cell, input_probabilities, result

    @pytest.mark.parametrize("cell_type", list(CellType))
    def test_every_cell_type_matches_exhaustive_enumeration(self, cell_type):
        """Each cell reads distinct independent inputs, so the model is exact."""
        for netlist, cell, inputs, result in self._random_single_cell_runs(cell_type, 25):
            for out in cell.output_nets():
                exact = _exact_probability(netlist, out, inputs)
                assert result.probability_of(out) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize(
        "cell_type,paper_formula",
        [(CellType.FA, fa_output_probabilities), (CellType.HA, ha_output_probabilities)],
    )
    def test_adders_use_the_allocators_formulas_bit_for_bit(self, cell_type, paper_formula):
        for _, cell, inputs, result in self._random_single_cell_runs(cell_type, 200):
            expected = paper_formula(*(inputs[p] for p in cell_input_ports(cell_type)))
            assert tuple(result.probability_of(out) for out in cell.output_nets()) == expected

    def test_invalid_probability_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            propagate_probabilities(netlist, {"a": 1.5})
        with pytest.raises(NetlistError):
            propagate_probabilities(netlist, {"missing": 0.5})

    def test_default_probability(self):
        netlist = Netlist("t")
        a = netlist.add_input("a")
        result = propagate_probabilities(netlist, default_probability=0.25)
        assert result.probability_of(a) == 0.25


class TestPowerEstimation:
    def test_tree_energy_matches_compression_bookkeeping(self, library):
        """E_switching(T) computed post-hoc equals the value accumulated during
        allocation — the two power views must agree on FA/HA trees."""
        expression = parse_expression("x*y + z + 5")
        signals = {
            "x": SignalSpec("x", 3, probability=[0.2, 0.5, 0.8]),
            "y": SignalSpec("y", 3, probability=0.35),
            "z": SignalSpec("z", 4, probability=0.65),
        }
        build = build_addend_matrix(expression, signals, 7, library=library)
        power_model = FAPowerModel.from_library(library)
        result = fa_alp(build.netlist, build.matrix, power_model=power_model)
        probabilities = propagate_probabilities(build.netlist)
        tree_cells = result.fa_cells + result.ha_cells
        recomputed = compressor_tree_switching_energy(tree_cells, probabilities, power_model)
        assert recomputed == pytest.approx(result.tree_switching_energy, rel=1e-9)

    def test_estimate_power_totals(self, library):
        expression = parse_expression("x + y + 3")
        signals = {"x": SignalSpec("x", 3), "y": SignalSpec("y", 3)}
        build = build_addend_matrix(expression, signals, 4, library=library)
        fa_alp(build.netlist, build.matrix)
        power = estimate_power(build.netlist, library)
        assert power.total_energy > 0
        assert power.total_switching > 0
        assert power.tree_energy <= power.total_energy
        assert set(power.by_cell_type) <= {"FA", "HA", "AND2", "NOT"}
        assert sum(power.by_cell_type.values()) == pytest.approx(power.total_energy)

    def test_power_report_renders(self, library):
        expression = parse_expression("x + y")
        signals = {"x": SignalSpec("x", 2), "y": SignalSpec("y", 2)}
        build = build_addend_matrix(expression, signals, 3, library=library)
        fa_alp(build.netlist, build.matrix)
        power = estimate_power(build.netlist, library)
        text = power_report(build.netlist, power)
        assert "E_switching" in text
        assert "energy by cell type" in text
