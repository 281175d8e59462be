"""Computation of the observation-point candidate sets ``OP(f)``.

For every fault ``f`` left undetected by ``Ω_lim``'s weighted
sequences, ``OP(f)`` is the set of lines ``g`` such that adding an
observation point on ``g`` would detect ``f`` under one of those
sequences — i.e. the lines where ``f``'s machine holds the binary
complement of a binary fault-free value at some time unit.  The fault
simulator records exactly this when line recording is on.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.util.rng import DeterministicRng


def compute_op_sets(
    circuit: Circuit,
    assignments: Sequence[WeightAssignment],
    faults: Sequence[Fault],
    l_g: int,
    rngs: Sequence[DeterministicRng | None] | None = None,
    compiled: CompiledCircuit | None = None,
    runtime=None,
) -> Dict[Fault, Set[str]]:
    """Compute ``OP(f)`` for every fault of ``faults`` under the
    weighted sequences of ``assignments``.

    Parameters
    ----------
    circuit:
        The circuit under test.
    assignments:
        The limited assignment set ``Ω_lim``.
    faults:
        The faults not detected by ``Ω_lim`` at the primary outputs.
    l_g:
        Length of each weighted sequence.
    rngs:
        Optional per-assignment rngs (needed only for pseudo-random
        weights); aligned with ``assignments``.
    compiled:
        Optional pre-compiled circuit to reuse.
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext` for
        cached / parallel fault simulation.

    Returns
    -------
    ``fault → set of line names``.  A fault whose effect never reaches
    any line under any sequence maps to the empty set (no observation
    point can recover it; the paper's fault efficiency then saturates
    below 100%).
    """
    comp = compiled or compile_circuit(circuit)
    sim = FaultSimulator(circuit, comp, runtime=runtime)
    op_sets: Dict[Fault, Set[str]] = {f: set() for f in faults}
    for k, assignment in enumerate(assignments):
        rng = rngs[k] if rngs is not None else None
        t_g = assignment.stimulus(l_g, rng)
        result = sim.run(t_g, list(faults), record_lines=True)
        for fault, lines in result.lines.items():
            op_sets[fault].update(lines)
    return op_sets
