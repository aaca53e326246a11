"""Compiled bit-parallel simulation programs.

:func:`compile_netlist_program` lowers a netlist's topological cell order
into a flat straight-line program over an integer value array: every net is
assigned a slot, and every cell becomes one instruction — ``(cell type,
input slots, output slots)`` — paired with a closure that applies the
cell's packed boolean semantics directly to the array.  The closures come
from each cell type's :attr:`~repro.netlist.cells.CellSemantics.packed_op`
factory, which is generated once per cell type when
:mod:`repro.netlist.cells` is imported; compiling a program only binds slot
indices into them, which is far cheaper than compiling per-netlist source.
The program is built once per netlist *generation* and replayed for every
chunk of an equivalence check or every batch of an empirical-switching
run, eliminating the per-chunk topological re-sort, per-cell port-dict
lookups, and per-cell type dispatch.

Cache correctness is structural, not conventional: :func:`cached_program`
keys the memo on :attr:`Netlist.generation`, which every structural
mutation bumps, so a stale program can never be replayed against a
rewritten netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.netlist.cells import cell_semantics
from repro.netlist.core import Netlist

_OpFn = Callable[[List[int], int], None]


@dataclass
class SimProgram:
    """A netlist lowered to a replayable straight-line packed program.

    ``slot_of`` maps every valued net (primary inputs, constants, cell
    outputs) to its index in the value array; ``instructions`` records, per
    cell in topological order, ``(cell_type.value, input_slots,
    output_slots)`` — a stable structural fingerprint that lets tests pin
    compile determinism byte-exactly (see :attr:`source`).
    """

    netlist_name: str
    generation: int
    slot_of: Dict[str, int]
    pi_slots: Tuple[Tuple[str, int], ...]
    const_slots: Tuple[Tuple[int, int], ...]  # (slot, constant bit)
    instructions: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]], ...]
    _ops: Tuple[_OpFn, ...] = field(repr=False, compare=False, default=())

    @property
    def n_slots(self) -> int:
        return len(self.slot_of)

    @property
    def source(self) -> str:
        """Pseudo-source rendering of the program (one line per cell).

        Purely a human-readable / byte-exact-comparison view — replay runs
        the threaded closures, not this text.
        """
        lines = [f"# sim program for {self.netlist_name!r}"]
        for name, slot in self.pi_slots:
            lines.append(f"v[{slot}] = input {name!r}")
        for slot, bit in self.const_slots:
            lines.append(f"v[{slot}] = const {bit}")
        for op_name, ins, outs in self.instructions:
            lines.append(
                f"v[{','.join(map(str, outs))}] = "
                f"{op_name}(v[{','.join(map(str, ins))}])"
            )
        return "\n".join(lines) + "\n"

    def run_packed(self, inputs: Mapping[str, int], mask: int) -> List[int]:
        """Replay the program on packed input words; returns the slot array.

        ``inputs`` maps every primary-input net name to one integer whose
        bit ``k`` is that input's value in vector ``k``; ``mask`` has one
        bit set per vector.  Extra keys are ignored (callers validate input
        names); missing primary inputs raise :class:`SimulationError`.
        """
        v = [0] * len(self.slot_of)
        for slot, bit in self.const_slots:
            v[slot] = mask if bit else 0
        try:
            for name, slot in self.pi_slots:
                v[slot] = inputs[name] & mask
        except KeyError:
            missing = [name for name, _ in self.pi_slots if name not in inputs]
            raise SimulationError(
                f"missing values for {len(missing)} primary inputs "
                f"(e.g. {missing[:5]})"
            ) from None
        for op in self._ops:
            op(v, mask)
        return v

    def values_dict(self, slots: List[int]) -> Dict[str, int]:
        """Name-keyed view of a slot array returned by :meth:`run_packed`."""
        return {name: slots[slot] for name, slot in self.slot_of.items()}


def compile_netlist_program(netlist: Netlist) -> SimProgram:
    """Lower ``netlist`` into a :class:`SimProgram`.

    Slot assignment is deterministic — primary inputs in declaration order,
    then constant nets, then cell outputs in topological order — so
    compiling a structurally identical netlist always yields identical
    ``instructions`` (and :attr:`SimProgram.source`).  A cell input net
    that is neither a primary input, a constant, nor driven by an earlier
    cell is floating; that is diagnosed here, at compile time, with the
    same message the interpreted sweep used to raise mid-evaluation.
    """
    slot_of: Dict[str, int] = {}
    pi_slots: List[Tuple[str, int]] = []
    const_slots: List[Tuple[int, int]] = []

    for net in netlist.primary_inputs:
        slot_of[net.name] = len(slot_of)
        pi_slots.append((net.name, slot_of[net.name]))
    for net in netlist.nets.values():
        if net.is_constant and net.name not in slot_of:
            slot_of[net.name] = len(slot_of)
            const_slots.append((slot_of[net.name], int(net.const_value or 0)))

    instructions: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []
    ops: List[_OpFn] = []
    for cell in netlist.topological_cells():
        semantics = cell_semantics(cell.cell_type)
        in_slots: List[int] = []
        for port in semantics.inputs:
            net = cell.inputs[port]
            slot = slot_of.get(net.name)
            if slot is None:
                raise SimulationError(
                    f"net {net.name!r} used by {cell.name!r} has no value"
                )
            in_slots.append(slot)
        out_slots: List[int] = []
        for port in semantics.outputs:
            net = cell.outputs[port]
            slot_of[net.name] = len(slot_of)
            out_slots.append(slot_of[net.name])
        ins, outs = tuple(in_slots), tuple(out_slots)
        instructions.append((cell.cell_type.value, ins, outs))
        ops.append(semantics.packed_op(ins, outs))

    return SimProgram(
        netlist_name=netlist.name,
        generation=netlist.generation,
        slot_of=slot_of,
        pi_slots=tuple(pi_slots),
        const_slots=tuple(const_slots),
        instructions=tuple(instructions),
        _ops=tuple(ops),
    )


def cached_program(netlist: Netlist) -> SimProgram:
    """The netlist's compiled program, recompiling only after mutations.

    The program is memoized on the netlist object and keyed by its
    :attr:`~Netlist.generation`; any structural mutation bumps the counter
    and forces a fresh compile on next use.  Emits ``sim.program_cache_hits``
    / ``sim.program_compiles`` obs counters so benchmarks can assert the
    compile cost is amortized across replays.
    """
    program = getattr(netlist, "_sim_program", None)
    if program is not None and program.generation == netlist.generation:
        obs.counter("sim.program_cache_hits")
        return program
    program = compile_netlist_program(netlist)
    netlist._sim_program = program
    obs.counter("sim.program_compiles")
    return program
