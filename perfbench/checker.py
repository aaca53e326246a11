"""Independent output checker for synthesized netlists.

A flow's netlist is correct when, for every input vector, its output bus
carries ``expression.evaluate(env) mod 2**W``.  This module checks that
without using the program's own simulators or cell semantics
(``repro.sim``, ``repro.netlist.cells``): every cell type's function is a
literal truth table below, turned into its algebraic normal form (XOR of
AND monomials) once, and the netlist is evaluated bit-parallel over Python
integers (bit ``v`` of a net's word is its value under vector ``v``) in a
topological order this module derives itself from the cells' bindings.

Vectors are exhaustive when a design has at most :data:`EXHAUSTIVE_BITS`
primary-input bits, otherwise :data:`RANDOM_VECTORS` seeded random vectors
plus the all-zeros and all-ones corners.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

#: cell type -> (input ports, {output port: truth table}).  Character ``i``
#: of a table is the output for the input combination whose bit ``k`` is
#: the value on input port ``k``.
TRUTH_TABLES: Dict[str, Tuple[Tuple[str, ...], Dict[str, str]]] = {
    "FA": (("a", "b", "cin"), {"s": "01101001", "co": "00010111"}),
    "HA": (("a", "b"), {"s": "0110", "co": "0001"}),
    "AND2": (("a", "b"), {"y": "0001"}),
    "NAND2": (("a", "b"), {"y": "1110"}),
    "OR2": (("a", "b"), {"y": "0111"}),
    "NOR2": (("a", "b"), {"y": "1000"}),
    "XOR2": (("a", "b"), {"y": "0110"}),
    "XNOR2": (("a", "b"), {"y": "1001"}),
    "NOT": (("a",), {"y": "10"}),
    "BUF": (("a",), {"y": "01"}),
    "MUX2": (("a", "b", "sel"), {"y": "01010011"}),
    "AOI21": (("a", "b", "c"), {"y": "11100000"}),
    "OAI21": (("a", "b", "c"), {"y": "11111000"}),
    "AOI22": (("a", "b", "c", "d"), {"y": "1110111011100000"}),
    "XOR3": (("a", "b", "c"), {"y": "01101001"}),
    "MAJ3": (("a", "b", "c"), {"y": "00010111"}),
}

#: designs with at most this many primary-input bits are checked exhaustively
EXHAUSTIVE_BITS = 12
#: random vectors for the larger designs (plus the two all-0/all-1 corners)
RANDOM_VECTORS = 512


def _anf(table: str) -> Tuple[int, ...]:
    """Monomials (as input-index bitmasks) of a truth table's ANF."""
    coeffs = [int(ch) for ch in table]
    n = len(coeffs).bit_length() - 1
    for i in range(n):
        for m in range(len(coeffs)):
            if m & (1 << i):
                coeffs[m] ^= coeffs[m ^ (1 << i)]
    return tuple(m for m, c in enumerate(coeffs) if c)


#: cell type -> (input ports, ((output port, monomials), ...))
_ANF = {
    name: (ports, tuple((out, _anf(table)) for out, table in outs.items()))
    for name, (ports, outs) in TRUTH_TABLES.items()
}


class Reference:
    """Input words and expected output words of one design's vector set."""

    def __init__(self, design, seed: int) -> None:
        variables = design.variables()
        widths = [design.signals[v].width for v in variables]
        total = sum(widths)
        if total <= EXHAUSTIVE_BITS:
            packed = list(range(1 << total))
        else:
            rng = random.Random(f"{design.name}-{seed}")
            packed = [0, (1 << total) - 1]
            packed += [rng.getrandbits(total) for _ in range(RANDOM_VECTORS)]
        self.count = len(packed)
        self.mask = (1 << self.count) - 1
        self.output_width = design.output_width
        modulus = 1 << design.output_width
        #: (variable, bit) -> word of that input bit over all vectors
        self.inputs: Dict[Tuple[str, int], int] = {}
        expected = [0] * design.output_width
        offsets = []
        offset = 0
        for width in widths:
            offsets.append(offset)
            offset += width
        for v, word in enumerate(packed):
            env = {}
            for name, width, off in zip(variables, widths, offsets):
                env[name] = (word >> off) & ((1 << width) - 1)
            value = design.expression.evaluate(env) % modulus
            for bit in range(design.output_width):
                if (value >> bit) & 1:
                    expected[bit] |= 1 << v
        for name, width, off in zip(variables, widths, offsets):
            for bit in range(width):
                word = 0
                for v, packed_word in enumerate(packed):
                    if (packed_word >> (off + bit)) & 1:
                        word |= 1 << v
                self.inputs[(name, bit)] = word
        self.expected = expected


def _topological(cells: Sequence) -> List:
    """Cells in dependency order (Kahn), from their own net bindings."""
    producer = {}
    for cell in cells:
        for net in cell.outputs.values():
            if net.name in producer:
                raise ValueError(f"net {net.name} is driven twice")
            producer[net.name] = cell
    waiting = {}
    users: Dict[str, List] = {}
    ready = []
    for cell in cells:
        deps = {producer[n.name].name for n in cell.inputs.values() if n.name in producer}
        waiting[cell.name] = len(deps)
        for dep in deps:
            users.setdefault(dep, []).append(cell)
        if not deps:
            ready.append(cell)
    order = []
    while ready:
        cell = ready.pop()
        order.append(cell)
        for user in users.get(cell.name, ()):
            waiting[user.name] -= 1
            if waiting[user.name] == 0:
                ready.append(user)
    if len(order) != len(cells):
        raise ValueError("netlist has a combinational loop")
    return order


def evaluate(netlist, reference: Reference) -> Dict[str, int]:
    """Word value of every net under the reference's vectors."""
    mask = reference.mask
    values: Dict[str, int] = {}
    for bus_name, bus in netlist.input_buses.items():
        for bit, net in enumerate(bus.nets):
            values[net.name] = reference.inputs[(bus_name, bit)]
    for net in netlist.nets.values():
        if net.const_value is not None:
            values[net.name] = mask if net.const_value else 0
    for cell in _topological(list(netlist.cells.values())):
        kind = getattr(cell.cell_type, "value", cell.cell_type)
        if kind not in _ANF:
            raise ValueError(f"cell {cell.name} has unknown type {kind}")
        ports, outputs = _ANF[kind]
        try:
            words = [values[cell.inputs[port].name] for port in ports]
        except KeyError as exc:
            raise ValueError(f"cell {cell.name}: input {exc} is undriven") from None
        for port, monomials in outputs:
            word = 0
            for monomial in monomials:
                term = mask
                for k, w in enumerate(words):
                    if monomial >> k & 1:
                        term &= w
                word ^= term
            values[cell.outputs[port].name] = word
    return values


def check(netlist, output_nets: Sequence, reference: Reference) -> Optional[str]:
    """``None`` when the netlist computes the reference, else what is wrong."""
    if len(output_nets) != reference.output_width:
        return f"output bus has {len(output_nets)} bits, expected {reference.output_width}"
    try:
        values = evaluate(netlist, reference)
    except KeyError as exc:
        return f"input bit {exc} is not one of the design's inputs"
    except ValueError as exc:
        return str(exc)
    for bit, net in enumerate(output_nets):
        got = values.get(net.name)
        if got is None:
            return f"output bit {bit} ({net.name}) is undriven"
        if got != reference.expected[bit]:
            wrong = got ^ reference.expected[bit]
            vector = (wrong & -wrong).bit_length() - 1
            return f"output bit {bit} wrong under vector {vector}"
    return None
