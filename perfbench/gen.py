"""Seeded generator of sum-of-products datapath designs.

Each design is written as expression text, parsed by
``repro.expr.parser.parse_expression`` and given one ``SignalSpec`` per
operand, so the program receives nothing but an ordinary
``DatapathDesign``.  The seed decides the shape of a design: its term count,
which operands each term multiplies (squares and cubes included), the
coefficients and signs, the operand widths and the arrival skew.  The size
is held within 10 % of a budget of partial-product bits, so two seeds give
designs of about the same synthesis cost and the workload's throughput and
QoR means do not swing with the seed.

Why these ranges:

* operand widths 3..8 bits span the registry's own operands (x2's 4 bits up
  to the 8-bit IIR samples) without reaching the 16-bit idct/kalman cost;
* coefficients 1..15 have one to four non-zero bits, the range the paper's
  filter designs use, so coefficient handling (CSD or not) is exercised;
* one operand in four is subtracted, so two's-complement negation runs;
* 1..3 factors per term, drawn from a pool of 2..5 operands, so products
  share operands and squares/cubes appear (the paper's x^2/x^3 cases);
* half the operands arrive late (0.1..1.0 ns, optionally rising 0.05 ns per
  bit), because uneven arrival is what FA_AOT exploits; the other half
  arrive at 0;
* the result is taken modulo 2**16, the accumulator width of most registry
  designs; with the budget held within 10 % this keeps the area of a seed's
  designs within a few percent of another seed's.
"""

from __future__ import annotations

import random
from typing import List

from repro.designs.base import DatapathDesign
from repro.expr.parser import parse_expression
from repro.expr.signals import SignalSpec

WIDTHS = (3, 8)
COEFFICIENTS = (1, 15)
FACTORS = (1, 2, 2, 2, 3)
OPERANDS = (2, 5)
NEGATIVE_P = 0.25
LATE_P = 0.5
LATE_ARRIVAL = (0.1, 1.0)
RAMP_NS = 0.05
CONSTANT_P = 0.3
OUTPUT_WIDTH = 16


def sop_design(name: str, seed: str, budget_bits: int) -> DatapathDesign:
    """One seeded sum-of-products design of about ``budget_bits`` addend bits."""
    rng = random.Random(seed)
    names = "abcde"[: rng.randint(*OPERANDS)]
    widths = {v: rng.randint(*WIDTHS) for v in names}
    terms: List[str] = []
    bits = 0
    while bits < budget_bits:
        factors = sorted(rng.choice(names) for _ in range(rng.choice(FACTORS)))
        coefficient = rng.randint(*COEFFICIENTS)
        size = bin(coefficient).count("1")
        for v in factors:
            size *= widths[v]
        if size > budget_bits // 2 or bits + size > budget_bits * 1.1:
            continue  # keep one term from dominating, and the total near budget
        negative = bool(terms) and rng.random() < NEGATIVE_P
        text = "*".join([str(coefficient)] + factors) if coefficient > 1 else "*".join(factors)
        terms.append(("- " if negative else "+ ") + text)
        bits += size
    if rng.random() < CONSTANT_P:
        terms.append(f"+ {rng.randint(1, 63)}")
    text = " ".join(terms)[2:]
    expression = parse_expression(text)
    signals = {}
    for v in expression.variables():
        arrival = 0.0
        if rng.random() < LATE_P:
            start = round(rng.uniform(*LATE_ARRIVAL), 3)
            ramp = RAMP_NS if rng.random() < 0.5 else 0.0
            arrival = [round(start + ramp * i, 3) for i in range(widths[v])]
        signals[v] = SignalSpec(v, widths[v], arrival=arrival)
    return DatapathDesign(
        name=name,
        title=text,
        expression=expression,
        signals=signals,
        output_width=OUTPUT_WIDTH,
        description=f"seeded sum of products ({seed})",
    )


def sop_designs(seed: int, count: int, budget_bits: int, tag: str) -> List[DatapathDesign]:
    """``count`` designs for workload ``tag``, all drawn from ``seed``."""
    return [
        sop_design(f"sop_{tag}{i}", f"{tag}-{seed}-{i}", budget_bits)
        for i in range(count)
    ]
