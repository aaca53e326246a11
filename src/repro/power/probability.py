"""Signal-probability propagation under the paper's power model.

The model of Section 4.1: signals are random variables, spatial independence
is assumed, gates have zero delay and glitches are ignored.  Probabilities are
propagated topologically from the primary inputs; the switching activity of a
signal is then ``p (1 - p)``.  Cell output probabilities come from
:attr:`repro.netlist.cells.CellSemantics.probability`.

The independence assumption makes reconvergent fanout slightly inaccurate —
that is a property of the paper's model, not an implementation shortcut; the
simulation-based estimator in :mod:`repro.sim.toggles` provides the exact
empirical counterpart used in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.errors import NetlistError
from repro.netlist.cells import cell_semantics
from repro.netlist.core import Net, Netlist

ProbabilityMap = Mapping[Union[str, Net], float]


@dataclass
class ProbabilityResult:
    """Per-net signal probabilities."""

    netlist_name: str
    probabilities: Dict[str, float] = field(default_factory=dict)

    def probability_of(self, net: Union[str, Net]) -> float:
        """Probability that the net is 1."""
        name = net.name if isinstance(net, Net) else net
        if name not in self.probabilities:
            raise NetlistError(f"no probability recorded for net {name!r}")
        return self.probabilities[name]

    def switching_of(self, net: Union[str, Net]) -> float:
        """Switching activity p(1-p) of the net."""
        probability = self.probability_of(net)
        return probability * (1.0 - probability)


def propagate_probabilities(
    netlist: Netlist,
    input_probabilities: Optional[ProbabilityMap] = None,
    default_probability: float = 0.5,
    use_net_attributes: bool = True,
) -> ProbabilityResult:
    """Propagate signal probabilities from the primary inputs to every net.

    Primary-input probabilities are taken, in priority order, from
    ``input_probabilities``, from the net's ``attributes["probability"]``
    annotation, and finally from ``default_probability``.  Constants have
    probability equal to their value.
    """
    explicit: Dict[str, float] = {}
    if input_probabilities:
        for key, value in input_probabilities.items():
            name = key.name if isinstance(key, Net) else str(key)
            if name not in netlist.nets:
                raise NetlistError(f"probability given for unknown net {name!r}")
            if not 0.0 <= float(value) <= 1.0:
                raise NetlistError(f"probability for {name!r} outside [0, 1]: {value}")
            explicit[name] = float(value)

    probabilities: Dict[str, float] = {}
    for net in netlist.nets.values():
        if net.is_constant:
            probabilities[net.name] = float(net.const_value or 0)
        elif net.is_primary_input:
            if net.name in explicit:
                probabilities[net.name] = explicit[net.name]
            elif use_net_attributes and "probability" in net.attributes:
                probabilities[net.name] = float(net.attributes["probability"])  # type: ignore[arg-type]
            else:
                probabilities[net.name] = default_probability

    for cell in netlist.topological_cells():
        semantics = cell_semantics(cell.cell_type)
        outputs = semantics.probability(
            *(probabilities[cell.inputs[port].name] for port in semantics.inputs)
        )
        for port, value in zip(semantics.outputs, outputs):
            probabilities[cell.outputs[port].name] = min(1.0, max(0.0, value))

    return ProbabilityResult(netlist_name=netlist.name, probabilities=probabilities)
