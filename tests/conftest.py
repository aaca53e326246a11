"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.core.delay_model import FADelayModel
from repro.core.power_model import FAPowerModel
from repro.designs.registry import get_design
from repro.expr.ast import Var
from repro.expr.signals import SignalSpec
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist
from repro.tech.default_libs import generic_035, unit_library


@pytest.fixture(scope="session")
def fresh_interpreter():
    """Run code in a new interpreter; return the JSON of its last line."""

    def run(code):
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "REPRO_HISTORY"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run


@pytest.fixture(scope="session")
def library():
    """The default generic 0.35 um-like technology library."""
    return generic_035()


@pytest.fixture(scope="session")
def unit_lib():
    """Unit-delay library (FA: Ds=2, Dc=1, Ws=Wc=1 — the paper's example values)."""
    return unit_library()


@pytest.fixture()
def paper_delay_model():
    """Ds=2, Dc=1 as used in Figure 2 of the paper."""
    return FADelayModel.paper_example()


@pytest.fixture()
def paper_power_model():
    """Ws=Wc=1 as used in Figure 4 of the paper."""
    return FAPowerModel.paper_example()


@pytest.fixture()
def small_design():
    """A small two-operand design used by many flow-level tests."""
    x, y = Var("x"), Var("y")
    from repro.designs.base import DatapathDesign

    return DatapathDesign(
        name="small_quadratic",
        title="x*x + 3*y + 5",
        expression=x * x + 3 * y + 5,
        signals={
            "x": SignalSpec("x", 4, arrival=[0.0, 0.2, 0.4, 0.6]),
            "y": SignalSpec("y", 4, probability=[0.1, 0.5, 0.9, 0.3]),
        },
        output_width=9,
        description="Small design for unit tests.",
    )


@pytest.fixture()
def subtract_design():
    """A design exercising subtraction and constants."""
    x, y, z = Var("x"), Var("y"), Var("z")
    from repro.designs.base import DatapathDesign

    return DatapathDesign(
        name="small_subtract",
        title="x*y - z + 7",
        expression=x * y - z + 7,
        signals={
            "x": SignalSpec("x", 3),
            "y": SignalSpec("y", 3, arrival=0.5),
            "z": SignalSpec("z", 4, probability=0.3),
        },
        output_width=7,
        description="Small subtraction design for unit tests.",
    )


@pytest.fixture(scope="session")
def x2_design():
    """The paper's smallest benchmark (X^2 with a 3-bit X)."""
    return get_design("x2")


def all_celltype_netlist() -> Netlist:
    """One instance of every cell type, plus constant and shared fanout nets."""
    netlist = Netlist("zoo")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    d = netlist.add_input("d")
    one = netlist.const(1)
    zero = netlist.const(0)

    netlist.add_cell(CellType.FA, {"a": a, "b": b, "cin": c})
    netlist.add_cell(CellType.HA, {"a": c, "b": d})
    netlist.add_cell(CellType.AND2, {"a": a, "b": one})
    netlist.add_cell(CellType.NAND2, {"a": a, "b": b})
    netlist.add_cell(CellType.OR2, {"a": b, "b": zero})
    netlist.add_cell(CellType.NOR2, {"a": c, "b": d})
    xor2 = netlist.add_cell(CellType.XOR2, {"a": a, "b": c})
    netlist.add_cell(CellType.XNOR2, {"a": b, "b": d})
    netlist.add_cell(CellType.NOT, {"a": a})
    netlist.add_cell(CellType.BUF, {"a": xor2.outputs["y"]})
    netlist.add_cell(CellType.MUX2, {"a": a, "b": b, "sel": c})
    netlist.add_cell(CellType.AOI21, {"a": a, "b": b, "c": c})
    netlist.add_cell(CellType.OAI21, {"a": b, "b": c, "c": d})
    netlist.add_cell(CellType.AOI22, {"a": a, "b": b, "c": c, "d": d})
    netlist.add_cell(CellType.XOR3, {"a": a, "b": b, "c": d})
    maj = netlist.add_cell(CellType.MAJ3, {"a": a, "b": c, "c": d})
    netlist.set_output(maj.outputs["y"])
    return netlist


@pytest.fixture()
def zoo_netlist():
    """A fresh :func:`all_celltype_netlist` (tests may mutate it)."""
    return all_celltype_netlist()
