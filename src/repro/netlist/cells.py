"""Cell (gate) types: one declarative row per type, every view derived from it.

The cells are the DAC 2000 flow's primitives (full/half adders, two-input
gates, an inverter) plus the complex cells of the technology-mapping targets
(``OAI21``, ``AOI22``, ``XOR3``, ``MAJ3``); all are combinational.

:data:`_TABLE` is the only place a cell type's function is written down:
its ordered input ports and, per output port, one expression in Python
bitwise syntax over the port names (``&``, ``|``, ``^``, ``~`` and
``b if sel else a``).  :class:`CellSemantics` derives from that row every
view the other layers use — scalar and packed-word evaluation, the compiled
simulator's ops, signal probabilities, Verilog text and the input symmetries
CSE canonicalizes.  Adding a cell type takes one row here plus its
characterization in the technology libraries.
"""

from __future__ import annotations

import ast
import itertools
import math
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NetlistError


class CellType(str, Enum):
    """Enumeration of supported cell (gate) types."""

    FA = "FA"
    HA = "HA"
    AND2 = "AND2"
    NAND2 = "NAND2"
    OR2 = "OR2"
    NOR2 = "NOR2"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    NOT = "NOT"
    BUF = "BUF"
    MUX2 = "MUX2"
    AOI21 = "AOI21"
    OAI21 = "OAI21"
    AOI22 = "AOI22"
    XOR3 = "XOR3"
    MAJ3 = "MAJ3"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: cell type -> (input ports in order, {output port: expression}, and
#: optionally the name of a :mod:`repro.core.power_model` function that
#: replaces the derived output probabilities).  FA and HA use the paper's
#: Section 4.2 formulas, which the allocator applies too, so the
#: post-synthesis power analysis agrees with allocation bit for bit.
_TABLE = {
    CellType.FA: ("a b cin", {"s": "a ^ b ^ cin", "co": "(a & b) | (a & cin) | (b & cin)"},
                  "fa_output_probabilities"),
    CellType.HA: ("a b", {"s": "a ^ b", "co": "a & b"}, "ha_output_probabilities"),
    CellType.AND2: ("a b", {"y": "a & b"}),
    CellType.NAND2: ("a b", {"y": "~(a & b)"}),
    CellType.OR2: ("a b", {"y": "a | b"}),
    CellType.NOR2: ("a b", {"y": "~(a | b)"}),
    CellType.XOR2: ("a b", {"y": "a ^ b"}),
    CellType.XNOR2: ("a b", {"y": "~(a ^ b)"}),
    CellType.NOT: ("a", {"y": "~a"}),
    CellType.BUF: ("a", {"y": "a"}),
    CellType.MUX2: ("a b sel", {"y": "b if sel else a"}),
    CellType.AOI21: ("a b c", {"y": "~((a & b) | c)"}),
    CellType.OAI21: ("a b c", {"y": "~((a | b) & c)"}),
    CellType.AOI22: ("a b c d", {"y": "~((a & b) | (c & d))"}),
    CellType.XOR3: ("a b c", {"y": "a ^ b ^ c"}),
    CellType.MAJ3: ("a b c", {"y": "(a & b) | (a & c) | (b & c)"}),
}

_OPS = {ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^"}
#: node types an expression may contain
_GRAMMAR = (ast.Name, ast.Load, ast.UnaryOp, ast.Invert, ast.BinOp, ast.IfExp, *_OPS)
#: (plain, inverted) Verilog primitive per top-level operator (None: a wire)
_PRIMITIVES = {None: ("buf", "not"), ast.BitAnd: ("and", "nand"),
               ast.BitOr: ("or", "nor"), ast.BitXor: ("xor", "xnor")}


def _parse(expression: str, ports: Sequence[str]) -> ast.expr:
    """Parse one output expression, admitting only the table's grammar."""
    tree = ast.parse(expression, mode="eval").body
    for node in ast.walk(tree):
        if not isinstance(node, _GRAMMAR):
            raise NetlistError(f"unsupported syntax {type(node).__name__} in {expression!r}")
        if isinstance(node, ast.Name) and node.id not in ports:
            raise NetlistError(f"expression {expression!r} reads unknown port {node.id!r}")
    return tree


def _same_op(a: ast.expr, b: ast.expr) -> bool:
    return isinstance(a, ast.BinOp) and isinstance(b, ast.BinOp) and type(a.op) is type(b.op)


def _factored(node: ast.expr) -> ast.expr:
    """Rewrite ``(p & q) | (p & r)`` as ``p & (q | r)``: one word operation less."""
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _factored(node.operand))
    if isinstance(node, ast.IfExp):
        return ast.IfExp(*(_factored(n) for n in (node.test, node.body, node.orelse)))
    if not isinstance(node, ast.BinOp):
        return node
    left, right = _factored(node.left), _factored(node.right)
    if isinstance(node.op, ast.BitOr) and _same_op(left, right) and isinstance(left.op, ast.BitAnd):
        for p, q in ((left.left, left.right), (left.right, left.left)):
            for r, s in ((right.left, right.right), (right.right, right.left)):
                if ast.dump(p) == ast.dump(r):
                    return ast.BinOp(p, ast.BitAnd(), ast.BinOp(q, ast.BitOr(), s))
    return ast.BinOp(left, node.op, right)


def _word_text(node: ast.expr, leaf: Callable[[str], str]) -> str:
    """Python source of ``node`` on packed words (``m`` = all-ones mask)."""
    if isinstance(node, ast.Name):
        return leaf(node.id)

    def sub(child: ast.expr) -> str:
        text = _word_text(child, leaf)
        return text if isinstance(child, ast.Name) else f"({text})"

    if isinstance(node, ast.UnaryOp):
        return f"m ^ {sub(node.operand)}"
    if isinstance(node, ast.IfExp):
        sel = sub(node.test)
        return f"({sub(node.body)} & {sel}) | ({sub(node.orelse)} & (m ^ {sel}))"
    return f"{sub(node.left)} {_OPS[type(node.op)]} {sub(node.right)}"


def _verilog_text(node: ast.expr) -> str:
    """Verilog rendering: parentheses only where the operator changes."""
    if isinstance(node, ast.Name):
        return node.id

    def sub(child: ast.expr) -> str:
        bare = isinstance(child, (ast.Name, ast.UnaryOp)) or _same_op(child, node)
        return _verilog_text(child) if bare else f"({_verilog_text(child)})"

    if isinstance(node, ast.UnaryOp):
        return f"~{sub(node.operand)}"
    if isinstance(node, ast.IfExp):
        return f"{sub(node.test)} ? {sub(node.body)} : {sub(node.orelse)}"
    return f"{sub(node.left)} {_OPS[type(node.op)]} {sub(node.right)}"


def _composed_probability(node: ast.expr, body: List[str]) -> str:
    """Append independence-composed statements to ``body``; return the result."""
    if isinstance(node, ast.Name):
        return f"x_{node.id}"
    if isinstance(node, ast.UnaryOp):
        text = f"1.0 - {_composed_probability(node.operand, body)}"
    elif isinstance(node, ast.IfExp):
        s, b, a = (_composed_probability(n, body) for n in (node.test, node.body, node.orelse))
        text = f"(1.0 - {s}) * {a} + {s} * {b}"
    else:
        x, y = (_composed_probability(n, body) for n in (node.left, node.right))
        text = {ast.BitAnd: f"{x} * {y}", ast.BitOr: f"{x} + {y} - {x} * {y}",
                ast.BitXor: f"{x} + {y} - 2.0 * {x} * {y}"}[type(node.op)]
    body.append(f"t{len(body)} = {text}")
    return f"t{len(body) - 1}"


def _polynomial(column: Sequence[int], ports: Sequence[str]) -> str:
    """Exact multilinear polynomial of a truth-table column, as Python source.

    ``column[k]`` is the output when bit ``i`` of ``k`` drives port ``i``.
    Monomials are ordered by degree, then by port order.
    """
    coefficients = list(column)
    for i in range(len(ports)):  # Moebius transform over the subset lattice
        for subset in range(len(coefficients)):
            if subset >> i & 1:
                coefficients[subset] -= coefficients[subset ^ (1 << i)]
    members = [[i for i in range(len(ports)) if s >> i & 1] for s in range(len(column))]
    terms = []
    for subset in sorted(range(len(column)), key=lambda s: (len(members[s]), members[s])):
        factors = [f"x_{ports[i]}" for i in members[subset]]
        if coefficients[subset] != 1 or not factors:
            factors.insert(0, repr(float(coefficients[subset])))
        if coefficients[subset]:
            terms.append(" * ".join(factors))
    # "x + -2.0 * y" rounds exactly like "x - 2.0 * y": negation is exact
    return " + ".join(terms) or "0.0"


class CellSemantics:
    """Every view of one cell type, derived from its :data:`_TABLE` row.

    The packed-op factory is compiled once per cell type when the module is
    imported; the other views are derived on first use.
    """

    def __init__(self, cell_type: CellType, inputs: str, outputs: Mapping[str, str],
                 paper_probability: Optional[str] = None) -> None:
        self.cell_type = cell_type
        self.inputs: Tuple[str, ...] = tuple(inputs.split())
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.expressions: Tuple[str, ...] = tuple(outputs.values())
        self._trees = tuple(_parse(e, self.inputs) for e in self.expressions)
        self._word_trees = tuple(_factored(t) for t in self._trees)
        self._paper_probability = paper_probability

        # packed_op(in_slots, out_slots) -> op(v, mask) applying the cell to
        # the slot array v; a port read more than once is loaded into a local
        reads: List[str] = []
        for tree in self._word_trees:
            _word_text(tree, lambda p: reads.append(p) or p)
        local = [p for p in self.inputs if reads.count(p) > 1]
        leaf = lambda p: f"x_{p}" if p in local else f"v[i_{p}]"  # noqa: E731
        self.packed_op = self._define(
            "def f(ins, outs):\n"
            f"    ({''.join(f'i_{p}, ' for p in self.inputs)}), "
            f"({''.join(f'o_{p}, ' for p in self.outputs)}) = ins, outs\n"
            "    def op(v, m):\n"
            + "".join(f"        x_{p} = v[i_{p}]\n" for p in local)
            + "".join(
                f"        v[o_{p}] = {_word_text(t, leaf)}\n"
                for p, t in zip(self.outputs, self._word_trees)
            )
            + "    return op\n"
        )

    def _define(self, source: str) -> Callable:
        """Compile generated source that defines ``f``; return ``f``."""
        namespace: Dict[str, Callable] = {}
        exec(compile(source, f"<cell {self.cell_type.value}>", "exec"), namespace)
        return namespace["f"]

    @cached_property
    def word(self) -> Callable[..., Tuple[int, ...]]:
        """``word(mask, *input_words)`` -> output words, bitwise over packed vectors.

        ``word(1, *bits)`` is the scalar boolean function.
        """
        args = ", ".join(f"x_{p}" for p in self.inputs)
        values = "".join(f"{_word_text(t, lambda p: f'x_{p}')}, " for t in self._word_trees)
        return self._define(f"def f(m, {args}):\n    return ({values})\n")

    @cached_property
    def truth_table(self) -> List[Tuple[int, ...]]:
        """Outputs under every input assignment (bit ``i`` of the index drives port ``i``)."""
        n = len(self.inputs)
        return [self.word(1, *(k >> i & 1 for i in range(n))) for k in range(1 << n)]

    @cached_property
    def probability(self) -> Callable[..., Tuple[float, ...]]:
        """``probability(*input_probabilities)`` -> output probabilities.

        Inputs are independent.  An output that reads each port once
        composes gate formulas (AND xy, OR x+y-xy, XOR x+y-2xy, NOT 1-x, MUX
        (1-s)a+sb); one that reads a port twice is the exact multilinear
        polynomial of its truth table.  A row naming a paper formula uses it.
        """
        if self._paper_probability:
            from repro.core import power_model

            return getattr(power_model, self._paper_probability)
        body: List[str] = []
        results = []
        for index, tree in enumerate(self._trees):
            names = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
            if len(names) == len(set(names)):
                results.append(_composed_probability(tree, body))
            else:
                column = [row[index] for row in self.truth_table]
                body.append(f"t{len(body)} = {_polynomial(column, self.inputs)}")
                results.append(f"t{len(body) - 1}")
        args = ", ".join(f"x_{p}" for p in self.inputs)
        statements = "".join(f"    {s}\n" for s in body)
        return self._define(f"def f({args}):\n{statements}    return ({', '.join(results)},)\n")

    @cached_property
    def symmetries(self) -> Tuple[Tuple[int, ...], ...]:
        """Input permutations ``perm`` that leave every output's truth table unchanged.

        Reading net ``names[perm[i]]`` on each port ``i`` then computes the
        same outputs as reading ``names[i]``.
        """
        n, table = len(self.inputs), self.truth_table
        permuted = lambda k, perm: sum((k >> perm[i] & 1) << i for i in range(n))  # noqa: E731
        return tuple(perm for perm in itertools.permutations(range(n))
                     if all(table[permuted(k, perm)] == table[k] for k in range(1 << n)))

    def canonical_inputs(self, names: Sequence[str]) -> Tuple[str, ...]:
        """The least reordering of the input net ``names`` under :attr:`symmetries`."""
        if len(self.symmetries) == math.factorial(len(names)):
            return tuple(sorted(names))
        return min(tuple(names[i] for i in perm) for perm in self.symmetries)

    @cached_property
    def verilog_primitive(self) -> Optional[str]:
        """The Verilog gate primitive equal to this cell, or None.

        That takes a single output applying one operator (or none), possibly
        inverted, to every input port once, in port order.
        """
        node = self._trees[0]
        inverted = isinstance(node, ast.UnaryOp)
        core = node.operand if inverted else node
        op = type(core.op) if isinstance(core, ast.BinOp) else None
        leaves = [core.left, core.right] if op else [core]
        if len(self._trees) > 1 or [getattr(n, "id", None) for n in leaves] != list(self.inputs):
            return None
        return _PRIMITIVES[op][inverted]

    @cached_property
    def verilog_expressions(self) -> Tuple[str, ...]:
        """Verilog ``assign`` right-hand side of each output."""
        return tuple(_verilog_text(tree) for tree in self._trees)


_REGISTRY: Dict[CellType, CellSemantics] = {
    cell_type: CellSemantics(cell_type, *row) for cell_type, row in _TABLE.items()
}


def cell_semantics(cell_type: CellType) -> CellSemantics:
    """Return the derived :class:`CellSemantics` of ``cell_type``."""
    try:
        return _REGISTRY[cell_type]
    except KeyError as exc:  # pragma: no cover - defensive
        raise NetlistError(f"unknown cell type {cell_type!r}") from exc


def cell_input_ports(cell_type: CellType) -> Tuple[str, ...]:
    """Return the ordered input port names of ``cell_type``."""
    return cell_semantics(cell_type).inputs


def cell_output_ports(cell_type: CellType) -> Tuple[str, ...]:
    """Return the ordered output port names of ``cell_type``."""
    return cell_semantics(cell_type).outputs


def is_combinational(cell_type: CellType) -> bool:
    """All supported cells are combinational; kept for API symmetry."""
    return cell_type in _REGISTRY


def evaluate_cell(cell_type: CellType, inputs: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate the boolean function of a cell on 0/1 input values.

    ``inputs`` maps input port names to 0 or 1.  The return value maps output
    port names to 0 or 1.  Raises :class:`NetlistError` for missing ports or
    non-binary values.
    """
    semantics = cell_semantics(cell_type)
    for port in semantics.inputs:
        if port not in inputs:
            raise NetlistError(f"missing value for input port {port!r} of {cell_type}")
        if inputs[port] not in (0, 1):
            raise NetlistError(
                f"non-binary value {inputs[port]!r} on port {port!r} of {cell_type}"
            )
    values = semantics.word(1, *(inputs[port] for port in semantics.inputs))
    return dict(zip(semantics.outputs, values))
