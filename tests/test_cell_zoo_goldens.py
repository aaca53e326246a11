"""Golden pins for every cell type: Verilog emission and signal probabilities.

The zoo netlist (``conftest.all_celltype_netlist``) instantiates each of the
16 cell types once, so these two files pin the Verilog text and the
propagated probability of every cell type's every output.  The probabilities
use non-dyadic inputs, assigned to the four primary inputs in every order,
so that a change in the floating-point operation order of a probability
formula shows up as a changed ``repr``.

Regenerating after an intentional change::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_cell_zoo_goldens.py
"""

import itertools
import os
import pathlib

from repro.netlist.verilog import to_verilog
from repro.power.probability import propagate_probabilities

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: non-dyadic input probabilities: no formula is exact in binary floating point
ZOO_INPUT_PROBABILITIES = (0.13, 0.37, 0.61, 0.89)


def _check_golden(name: str, content: str) -> str:
    """Return the committed golden text (rewritten first under REPRO_BLESS)."""
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_BLESS"):
        path.write_text(content, encoding="utf-8")
    assert path.exists(), f"missing golden file {path}; regenerate with REPRO_BLESS=1"
    return path.read_text(encoding="utf-8")


def test_zoo_verilog_matches_golden(zoo_netlist):
    text = to_verilog(zoo_netlist)
    assert text == _check_golden("zoo_netlist.v", text), (
        "to_verilog output drifted from tests/golden/zoo_netlist.v"
    )


def test_zoo_probabilities_match_golden(zoo_netlist):
    """One line per net: its probability under each input assignment."""
    results = [
        propagate_probabilities(zoo_netlist, dict(zip("abcd", values)))
        for values in itertools.permutations(ZOO_INPUT_PROBABILITIES)
    ]
    probabilities = {
        name: [result.probability_of(name) for result in results]
        for name in zoo_netlist.nets
    }
    text = "".join(
        " ".join([name, *map(repr, values)]) + "\n"
        for name, values in probabilities.items()
    )
    golden = {}
    for line in _check_golden("zoo_probabilities.txt", text).splitlines():
        name, *values = line.split(" ")
        golden[name] = [float(value) for value in values]
    assert probabilities == golden
