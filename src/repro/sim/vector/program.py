"""Compilation of (circuit, fault list) into a kernel program.

Fault forces come in three shapes, mirroring the oracle exactly:

* *stem* forces on a net's row (``o = (o | f1) & ~f0``,
  ``z = (z | f0) & ~f1``), applied when the row is written;
* *pin* forces on one gate input (branch faults) — only the faulted
  pin sees the forced value;
* *capture* forces on a flip-flop D pin, applied to the captured
  next-state word.

Stem faults on constant nets are dropped: the pure-Python engine
rewrites constant rows after applying stem forces, so such forces are
silently inert there, and the vector backend must agree.

The schedule, :attr:`VectorProgram.flat_ops`, is the oracle's
topological op order with per-op stem/pin forces (same shape as
``_GroupSim._ops``, so the kernel's evaluation is a line-for-line
mirror).

A force is a pair of lane masks ``(f0, f1)``, one per stuck value.
Which rows and pins carry a non-zero ``f0`` or ``f1`` is the program's
*force layout*.  The kernel's generated step code depends on the
layout alone and lane numbers live only in the mask values, so the
same faults in another order, or a program rebuilt for the same
survivors, run the same compiled code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault


class VectorProgram:
    """Execution-ready form of one (circuit, faults) pair."""

    __slots__ = (
        "comp",
        "faults",
        "lanes",
        "n_circuit_rows",
        "flat_ops",
        "load_forces",
        "ff_capture",
        "pi_rows",
        "ff_rows",
        "po_rows",
        "ff_next_rows",
        "const0_rows",
        "const1_rows",
        "step_code",
    )

    def __init__(self, comp: CompiledCircuit, faults: Tuple[Fault, ...]) -> None:
        self.comp = comp
        self.faults = faults
        self.lanes = len(faults) + 1
        self.n_circuit_rows = comp.n_nets
        self.pi_rows = comp.pi_indices
        self.ff_rows = comp.ff_indices
        self.po_rows = comp.po_indices
        self.ff_next_rows = comp.ff_next_indices
        self.const0_rows = comp.const0_indices
        self.const1_rows = comp.const1_indices
        # Filled by build_program:
        self.flat_ops: Tuple = ()
        self.load_forces: Tuple[Tuple[int, int, int], ...] = ()
        self.ff_capture: Dict[int, Tuple[int, int]] = {}
        # (source, mask_plan) of the generated step: filled by the first
        # kernel built on this program and shared by the rest.
        self.step_code: Optional[Tuple[str, Tuple[Tuple[int, bool], ...]]] = None


def build_program(
    comp: CompiledCircuit,
    flop_pos: Dict[str, int],
    faults: Sequence[Fault],
) -> VectorProgram:
    """Build the :class:`VectorProgram` for ``faults`` on ``comp``."""
    prog = VectorProgram(comp, tuple(faults))
    const_rows = set(comp.const0_indices) | set(comp.const1_indices)

    stem_force: Dict[int, List[int]] = {}  # row -> [f0_mask, f1_mask]
    pin_force: Dict[int, Dict[int, List[int]]] = {}  # gate row -> pin -> masks
    ff_capture: Dict[int, List[int]] = {}
    for offset, fault in enumerate(prog.faults):
        bit = 1 << (offset + 1)
        if fault.is_branch and fault.gate in flop_pos:
            slot = ff_capture.setdefault(flop_pos[fault.gate], [0, 0])
        elif fault.is_branch:
            gate_row = comp.index[fault.gate]
            slot = pin_force.setdefault(gate_row, {}).setdefault(
                fault.pin, [0, 0]
            )
        else:
            row = comp.index[fault.net]
            if row in const_rows:
                continue  # inert in the oracle: const rows are rewritten
            slot = stem_force.setdefault(row, [0, 0])
        slot[fault.stuck] |= bit

    prog.ff_capture = {s: (f0, f1) for s, (f0, f1) in ff_capture.items()}

    op_rows = {out for _, out, _ in comp.ops}
    prog.load_forces = tuple(
        sorted(
            (row, f0, f1)
            for row, (f0, f1) in stem_force.items()
            if row not in op_rows
        )
    )

    prog.flat_ops = tuple(
        (
            opcode,
            out,
            fanins,
            tuple(stem_force[out]) if out in stem_force else None,
            (
                {pin: (f0, f1) for pin, (f0, f1) in pin_force[out].items()}
                if out in pin_force
                else None
            ),
        )
        for opcode, out, fanins in comp.ops
    )
    return prog
