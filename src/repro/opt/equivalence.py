"""Netlist-vs-netlist equivalence checking.

Unlike :mod:`repro.sim.equivalence` (netlist vs. word-level expression),
this checker compares two *netlists* bit-for-bit on every primary output —
the contract every optimization pass must preserve.  Each netlist is
compiled once into a :class:`repro.sim.program.SimProgram` (memoized per
netlist generation) and the check runs on the programs
(:func:`check_programs_equivalent`), replaying them for every chunk, with
the input stimulus built directly in packed form (exhaustive patterns are
periodic bit masks, random ones a ``getrandbits`` word per input) so no
per-vector dicts — and no per-chunk topological re-sorts — are ever
materialized.  Up to ``exhaustive_width_limit`` primary-input bits the
check tries every input combination, above it a seeded random sample is
used.  Vectors are processed in power-of-two chunks so exhaustive checks
of ~20 input bits stay within bounded memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import OptimizationError
from repro.netlist.core import Netlist
from repro.sim.program import SimProgram, cached_program


@dataclass
class NetlistEquivalenceReport:
    """Outcome of a netlist-vs-netlist equivalence check."""

    equivalent: bool
    vectors_checked: int
    exhaustive: bool
    mismatches: List[Dict[str, object]] = field(default_factory=list)

    def assert_ok(self) -> None:
        """Raise :class:`OptimizationError` when the check failed."""
        if not self.equivalent:
            example = self.mismatches[0] if self.mismatches else {}
            raise OptimizationError(
                f"optimized netlist is not equivalent to the original; "
                f"first mismatch: {example}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record for reports and artifacts."""
        return {
            "equivalent": self.equivalent,
            "vectors_checked": self.vectors_checked,
            "exhaustive": self.exhaustive,
            "mismatches": list(self.mismatches),
        }


def _packed_exhaustive_chunk(
    names: List[str], start: int, count: int
) -> Dict[str, int]:
    """Packed input words for vectors ``start .. start+count-1`` of the
    exhaustive enumeration (input ``names[i]`` carries bit ``i`` of the
    vector index).

    Requires ``count`` to be a power of two and ``start`` a multiple of it,
    so low bits are exact periodic patterns and high bits are constant over
    the chunk.
    """
    mask = (1 << count) - 1
    words: Dict[str, int] = {}
    for i, name in enumerate(names):
        half = 1 << i
        if half >= count:
            words[name] = mask if (start >> i) & 1 else 0
        else:
            period = half << 1
            base = ((1 << half) - 1) << half  # one period: half 0s, half 1s
            repunit = ((1 << count) - 1) // ((1 << period) - 1)
            words[name] = base * repunit
    return words


def compiled_reference(netlist: Netlist) -> Tuple[SimProgram, List[str]]:
    """The netlist's compiled program and primary-output names.

    That is all an equivalence check reads of a netlist, and the program
    outlives later rewrites of the netlist, so the pair stands in for a
    copy of the netlist's current state.
    """
    return cached_program(netlist), [net.name for net in netlist.primary_outputs]


def check_netlists_equivalent(
    reference: Netlist,
    candidate: Netlist,
    exhaustive_width_limit: int = 18,
    random_vector_count: int = 512,
    seed: int = 2000,
    chunk_size: int = 8192,
    max_mismatches: int = 5,
) -> NetlistEquivalenceReport:
    """Check that ``candidate`` matches ``reference`` on every primary output.

    Both netlists must expose identical primary input and primary output net
    names (the optimizer preserves both).  The check runs on their compiled
    programs (see :func:`check_programs_equivalent`).
    """
    return check_programs_equivalent(
        *compiled_reference(reference),
        *compiled_reference(candidate),
        exhaustive_width_limit,
        random_vector_count,
        seed,
        chunk_size,
        max_mismatches,
    )


def check_programs_equivalent(
    reference: SimProgram,
    reference_outputs: Sequence[str],
    candidate: SimProgram,
    candidate_outputs: Sequence[str],
    exhaustive_width_limit: int = 18,
    random_vector_count: int = 512,
    seed: int = 2000,
    chunk_size: int = 8192,
    max_mismatches: int = 5,
) -> NetlistEquivalenceReport:
    """Check that ``candidate`` matches ``reference`` on the named outputs.

    The arguments come in :func:`compiled_reference` pairs.  Both programs
    must read identical primary-input names and the output name lists
    must hold the same names.  With at most
    ``exhaustive_width_limit`` primary-input bits every combination is
    checked; otherwise ``random_vector_count`` seeded random vectors are
    used.  Evaluation happens in ``chunk_size`` batches (rounded down to a
    power of two) of program replays, with the stimulus built directly as
    packed words.
    """
    ref_pis = [name for name, _slot in reference.pi_slots]
    cand_pis = {name for name, _slot in candidate.pi_slots}
    if set(ref_pis) != cand_pis:
        raise OptimizationError(
            f"primary inputs differ: {sorted(set(ref_pis) ^ cand_pis)}"
        )
    ref_pos = list(reference_outputs)
    cand_pos = set(candidate_outputs)
    if set(ref_pos) != cand_pos:
        raise OptimizationError(
            f"primary outputs differ: {sorted(set(ref_pos) ^ cand_pos)}"
        )

    width = len(ref_pis)
    exhaustive = width <= exhaustive_width_limit
    total = (1 << width) if exhaustive else random_vector_count
    # power-of-two chunks keep the exhaustive bit patterns chunk-aligned
    chunk_size = 1 << (max(1, chunk_size).bit_length() - 1)
    rng = random.Random(seed)

    ref_po_slots = [reference.slot_of[po] for po in ref_pos]
    cand_po_slots = [candidate.slot_of[po] for po in ref_pos]

    mismatches: List[Dict[str, object]] = []
    checked = 0
    for start in range(0, total, chunk_size):
        count = min(chunk_size, total - start)
        if exhaustive:
            words = _packed_exhaustive_chunk(ref_pis, start, count)
        else:
            words = {name: rng.getrandbits(count) for name in ref_pis}
        mask = (1 << count) - 1
        ref_slots = reference.run_packed(words, mask)
        cand_slots = candidate.run_packed(words, mask)
        checked += count
        for po, ref_slot, cand_slot in zip(ref_pos, ref_po_slots, cand_po_slots):
            ref_word = ref_slots[ref_slot]
            difference = ref_word ^ cand_slots[cand_slot]
            while difference and len(mismatches) < max_mismatches:
                index = (difference & -difference).bit_length() - 1
                difference &= difference - 1
                expected = (ref_word >> index) & 1
                mismatches.append(
                    {
                        "net": po,
                        "inputs": {
                            name: (words[name] >> index) & 1 for name in ref_pis
                        },
                        "expected": expected,
                        "produced": expected ^ 1,
                    }
                )
        if len(mismatches) >= max_mismatches:
            break

    return NetlistEquivalenceReport(
        equivalent=not mismatches,
        vectors_checked=checked,
        exhaustive=exhaustive,
        mismatches=mismatches,
    )
