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

A force is a pair of lane masks ``(f0, f1)``, one per stuck value, kept
in :attr:`VectorProgram.forces` by *site*: a stem site is the net's
row, a pin site is ``(gate_row, pin)``.  Which sites carry a non-zero
``f0`` or ``f1`` is the program's *force layout*.  The kernel's
generated step code depends on the layout alone and looks each
program's masks up by site, so the same faults in another order, or a
program rebuilt for the same survivors, run the same compiled code.

A zero mask is the identity (``(o | 0) & ~0 == o``), so code generated
for a larger layout runs a smaller one exactly, with zero masks at the
sites the smaller one does not use.  :func:`covering` gives every
compiled circuit one such larger layout, that of its collapsed fault
list, which covers every list a flow simulates (see
:mod:`repro.sim.vector.kernels`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.collapse import collapse_faults
from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.vector.kernels import StepCode

Site = Union[int, Tuple[int, int]]
"""A force site: a stem's row, or ``(gate_row, pin)`` for a pin."""


class VectorProgram:
    """Execution-ready form of one (circuit, faults) pair."""

    __slots__ = (
        "comp",
        "faults",
        "lanes",
        "n_circuit_rows",
        "forces",
        "ff_capture",
        "pi_rows",
        "ff_rows",
        "po_rows",
        "ff_next_rows",
        "const0_rows",
        "const1_rows",
        "code",
        "own",
        "steps",
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
        self.forces: Dict[Site, Tuple[int, int]] = {}
        self.ff_capture: Dict[int, Tuple[int, int]] = {}
        # The step code every kernel on this program runs, chosen by the
        # first kernel built on it; ``own`` once it is compiled from this
        # program's own layout.  ``steps`` counts kernel steps, a step of
        # an n-block kernel counting n.  See repro.sim.vector.kernels.
        self.code: Optional["StepCode"] = None
        self.own = False
        self.steps = 0

    def polarities(self, site: Site) -> int:
        """Bit 0 set if ``site`` forces any lane to 0, bit 1 if to 1."""
        f0, f1 = self.forces[site]
        return (f0 != 0) | (f1 != 0) << 1


def build_program(
    comp: CompiledCircuit,
    flop_pos: Dict[str, int],
    faults: Sequence[Fault],
) -> VectorProgram:
    """Build the :class:`VectorProgram` for ``faults`` on ``comp``."""
    prog = VectorProgram(comp, tuple(faults))
    const_rows = set(comp.const0_indices) | set(comp.const1_indices)

    forces: Dict[Site, List[int]] = {}
    ff_capture: Dict[int, List[int]] = {}
    for offset, fault in enumerate(prog.faults):
        bit = 1 << (offset + 1)
        if fault.is_branch and fault.gate in flop_pos:
            slot = ff_capture.setdefault(flop_pos[fault.gate], [0, 0])
        elif fault.is_branch:
            slot = forces.setdefault((comp.index[fault.gate], fault.pin), [0, 0])
        else:
            row = comp.index[fault.net]
            if row in const_rows:
                continue  # inert in the oracle: const rows are rewritten
            slot = forces.setdefault(row, [0, 0])
        slot[fault.stuck] |= bit

    prog.forces = {site: (f0, f1) for site, (f0, f1) in forces.items()}
    prog.ff_capture = {s: (f0, f1) for s, (f0, f1) in ff_capture.items()}
    return prog


def covering(comp: CompiledCircuit) -> VectorProgram:
    """The program of ``comp``'s collapsed fault list, built on first use.

    Its layout is the one every covered program starts on.  It is kept
    on ``comp`` itself (as :func:`functools.cached_property` would keep
    it), so it is dropped with the compiled circuit, and so is its step
    code, apart from the entry the step-function memo may keep a while
    longer, as it does for any layout.
    """
    cover = getattr(comp, "_vector_cover", None)
    if cover is None:
        circuit = comp.circuit
        flop_pos = {name: i for i, name in enumerate(circuit.flops)}
        cover = build_program(comp, flop_pos, collapse_faults(circuit))
        object.__setattr__(comp, "_vector_cover", cover)
    return cover


def covers(cover: VectorProgram, prog: VectorProgram) -> bool:
    """Does ``cover``'s layout carry every site and polarity of ``prog``'s?"""
    have = cover.forces
    return all(
        site in have and not prog.polarities(site) & ~cover.polarities(site)
        for site in prog.forces
    )
