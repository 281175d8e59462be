"""Greedy selection of limited assignment sets ``Ω_lim`` (Section 5).

The paper's observation-point experiment does not reuse reverse-order
simulation; it picks assignments out of ``Ω`` greedily — "we select the
weight assignment that detects the largest number of faults out of F"
— repeating until all target faults are covered.  The full greedy order
is computed once; every prefix of it is an ``Ω_lim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.core.procedure import ProcedureResult
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator


@dataclass(frozen=True)
class GreedyPick:
    """One greedy pick.

    Attributes
    ----------
    index:
        The assignment's position in ``Ω``: its weighted sequence is the
        one :meth:`~repro.core.procedure.ProcedureResult.generation_rng`
        of this index reproduces.
    assignment:
        The picked weight assignment.
    new_faults:
        Target faults it covered that earlier picks had not.
    cumulative_detected:
        Total target faults covered after this pick.
    """

    index: int
    assignment: WeightAssignment
    new_faults: Tuple[Fault, ...]
    cumulative_detected: int


def greedy_select(
    circuit: Circuit,
    procedure: ProcedureResult,
    compiled: CompiledCircuit | None = None,
    runtime=None,
) -> List[GreedyPick]:
    """Order ``Ω`` greedily by marginal fault coverage.

    Each assignment's weighted sequence is fault-simulated once against
    the full target set; the greedy loop then works on the cached
    detection sets.  The returned order covers every target fault (``Ω``
    does by construction).  ``runtime`` optionally plugs the simulator
    into the artifact cache.
    """
    comp = compiled or compile_circuit(circuit)
    sim = FaultSimulator(circuit, comp, runtime=runtime)
    targets = list(procedure.target_faults)

    detection_sets: List[Set[Fault]] = []
    for index, entry in enumerate(procedure.omega):
        rng = (
            procedure.generation_rng(index)
            if entry.assignment.has_random
            else None
        )
        t_g = entry.assignment.stimulus(procedure.l_g, rng)
        detected = set(sim.run(t_g, targets).detection_time)
        detection_sets.append(detected)

    picks: List[GreedyPick] = []
    covered: Set[Fault] = set()
    available = list(range(len(procedure.omega)))
    while len(covered) < len(targets) and available:
        best_index = max(
            available, key=lambda k: (len(detection_sets[k] - covered), -k)
        )
        gain = detection_sets[best_index] - covered
        if not gain:
            break
        covered |= gain
        available.remove(best_index)
        picks.append(
            GreedyPick(
                index=best_index,
                assignment=procedure.omega[best_index].assignment,
                new_faults=tuple(sorted(gain)),
                cumulative_detected=len(covered),
            )
        )
    return picks
