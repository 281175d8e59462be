"""Compilation of a :class:`~repro.circuit.netlist.Circuit` into the
integer-indexed form every simulator executes.

Net names are mapped to dense indices once; gates become ``(opcode,
out_index, fanin_indices)`` triples in topological order.  The logic
simulator and both fault simulators execute this compiled form, so
they agree on evaluation order by construction.

:func:`gate_source` is the one place ternary gate semantics are written
as generated Python source; the compiled logic simulator and the vector
fault kernel both emit their gates through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError

# Opcodes, kept as plain ints for speed in the inner loops.
OP_AND = 0
OP_NAND = 1
OP_OR = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7

_OPCODES = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
}

OPCODE_NAMES = {v: k.value for k, v in _OPCODES.items()}


@dataclass(frozen=True)
class CompiledCircuit:
    """Execution-ready form of a circuit.

    Attributes
    ----------
    circuit:
        The source netlist (kept for name lookups and fault mapping).
    index:
        Net name → dense index.
    names:
        Dense index → net name.
    ops:
        Combinational gates in evaluation order:
        ``(opcode, out_index, fanin_indices)``.
    pi_indices / po_indices:
        Primary input/output indices, in port order.
    ff_indices:
        Flip-flop output indices, in :attr:`Circuit.flops` order.
    ff_next_indices:
        For each flip-flop (same order), the index of its next-state net.
    const0_indices / const1_indices:
        Indices of constant nets.
    """

    circuit: Circuit
    index: Dict[str, int]
    names: Tuple[str, ...]
    ops: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    pi_indices: Tuple[int, ...]
    po_indices: Tuple[int, ...]
    ff_indices: Tuple[int, ...]
    ff_next_indices: Tuple[int, ...]
    const0_indices: Tuple[int, ...]
    const1_indices: Tuple[int, ...]

    @property
    def n_nets(self) -> int:
        """Total number of nets."""
        return len(self.names)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` into a :class:`CompiledCircuit`."""
    names = circuit.nets
    index = {name: i for i, name in enumerate(names)}
    ops = []
    for net in circuit.combinational_order:
        gate = circuit.gate(net)
        ops.append(
            (
                _OPCODES[gate.gtype],
                index[net],
                tuple(index[f] for f in gate.fanins),
            )
        )
    const0 = []
    const1 = []
    for net, gate in circuit.gates.items():
        if gate.gtype is GateType.CONST0:
            const0.append(index[net])
        elif gate.gtype is GateType.CONST1:
            const1.append(index[net])
    return CompiledCircuit(
        circuit=circuit,
        index=index,
        names=names,
        ops=tuple(ops),
        pi_indices=tuple(index[n] for n in circuit.inputs),
        po_indices=tuple(index[n] for n in circuit.outputs),
        ff_indices=tuple(index[n] for n in circuit.flops),
        ff_next_indices=tuple(
            index[circuit.gate(n).fanins[0]] for n in circuit.flops
        ),
        const0_indices=tuple(const0),
        const1_indices=tuple(const1),
    )


def gate_source(
    opcode: int, ones: Sequence[str], zeros: Sequence[str]
) -> Tuple[List[str], str, str]:
    """Python source evaluating one ternary gate on two-rail operands.

    A ternary value travels as two rails: ``ones`` is set where it is 1,
    ``zeros`` where it is 0, and neither where it is X.  ``ones[k]`` and
    ``zeros[k]`` are source expressions for fanin ``k``'s rails; the
    formulas are bitwise, so a rail may be one bit (the logic simulator)
    or a word of fault lanes (the vector kernel).

    Returns ``(statements, ones_expr, zeros_expr)``.  The statements
    (XOR/XNOR temporaries ``xo``, ``xz``, ``eo``, ``ez``) must run, in
    order, before the two expressions are evaluated.
    """
    if opcode == OP_AND or opcode == OP_NAND:
        oexpr = "&".join(ones)
        zexpr = "|".join(zeros)
        if opcode == OP_NAND:
            oexpr, zexpr = zexpr, oexpr
        return [], oexpr, zexpr
    if opcode == OP_OR or opcode == OP_NOR:
        oexpr = "|".join(ones)
        zexpr = "&".join(zeros)
        if opcode == OP_NOR:
            oexpr, zexpr = zexpr, oexpr
        return [], oexpr, zexpr
    if opcode == OP_NOT:
        return [], zeros[0], ones[0]
    if opcode == OP_BUF:
        return [], ones[0], zeros[0]
    if opcode == OP_XOR or opcode == OP_XNOR:
        statements = [f"xo = {ones[0]}; xz = {zeros[0]}"]
        for oe, ze in zip(ones[1:], zeros[1:]):
            statements.append(f"eo = {oe}; ez = {ze}")
            statements.append("xo, xz = (xo&ez)|(xz&eo), (xo&eo)|(xz&ez)")
        if opcode == OP_XNOR:
            return statements, "xz", "xo"
        return statements, "xo", "xz"
    raise SimulationError(f"unknown opcode {opcode}")
