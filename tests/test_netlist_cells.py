"""Tests for cell definitions and boolean semantics."""

import itertools

import pytest

from repro.errors import NetlistError
from repro.netlist.cells import (
    CellType,
    cell_input_ports,
    cell_output_ports,
    evaluate_cell,
    is_combinational,
)


class TestPortDefinitions:
    def test_every_cell_has_ports(self):
        for cell_type in CellType:
            assert cell_input_ports(cell_type)
            assert cell_output_ports(cell_type)
            assert is_combinational(cell_type)

    def test_fa_ports(self):
        assert cell_input_ports(CellType.FA) == ("a", "b", "cin")
        assert cell_output_ports(CellType.FA) == ("s", "co")

    def test_ha_ports(self):
        assert cell_input_ports(CellType.HA) == ("a", "b")
        assert cell_output_ports(CellType.HA) == ("s", "co")


class TestEvaluate:
    def test_fa_truth_table(self):
        for a, b, cin in itertools.product((0, 1), repeat=3):
            out = evaluate_cell(CellType.FA, {"a": a, "b": b, "cin": cin})
            assert out["s"] + 2 * out["co"] == a + b + cin

    def test_ha_truth_table(self):
        for a, b in itertools.product((0, 1), repeat=2):
            out = evaluate_cell(CellType.HA, {"a": a, "b": b})
            assert out["s"] + 2 * out["co"] == a + b

    @pytest.mark.parametrize(
        "cell_type,function",
        [
            (CellType.AND2, lambda a, b: a & b),
            (CellType.NAND2, lambda a, b: 1 - (a & b)),
            (CellType.OR2, lambda a, b: a | b),
            (CellType.NOR2, lambda a, b: 1 - (a | b)),
            (CellType.XOR2, lambda a, b: a ^ b),
            (CellType.XNOR2, lambda a, b: 1 - (a ^ b)),
        ],
    )
    def test_two_input_gates(self, cell_type, function):
        for a, b in itertools.product((0, 1), repeat=2):
            assert evaluate_cell(cell_type, {"a": a, "b": b})["y"] == function(a, b)

    def test_not_and_buf(self):
        for a in (0, 1):
            assert evaluate_cell(CellType.NOT, {"a": a})["y"] == 1 - a
            assert evaluate_cell(CellType.BUF, {"a": a})["y"] == a

    def test_mux(self):
        for a, b, sel in itertools.product((0, 1), repeat=3):
            expected = b if sel else a
            assert evaluate_cell(CellType.MUX2, {"a": a, "b": b, "sel": sel})["y"] == expected

    def test_aoi21(self):
        for a, b, c in itertools.product((0, 1), repeat=3):
            expected = 1 - ((a & b) | c)
            assert evaluate_cell(CellType.AOI21, {"a": a, "b": b, "c": c})["y"] == expected

    @pytest.mark.parametrize(
        "cell_type,ports,function",
        [
            (CellType.OAI21, "abc", lambda a, b, c: 0 if (a or b) and c else 1),
            (CellType.AOI22, "abcd", lambda a, b, c, d: 0 if (a and b) or (c and d) else 1),
            (CellType.XOR3, "abc", lambda a, b, c: (a + b + c) % 2),
            (CellType.MAJ3, "abc", lambda a, b, c: int(a + b + c >= 2)),
        ],
    )
    def test_complex_gates(self, cell_type, ports, function):
        assert cell_input_ports(cell_type) == tuple(ports)
        for bits in itertools.product((0, 1), repeat=len(ports)):
            out = evaluate_cell(cell_type, dict(zip(ports, bits)))
            assert out == {"y": function(*bits)}, bits

    def test_missing_port_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_cell(CellType.FA, {"a": 1, "b": 0})

    def test_non_binary_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_cell(CellType.NOT, {"a": 2})
