"""Reverse-order simulation (Section 4.3).

The procedure builds ``Ω`` short-subsequences-first, which can leave
early assignments redundant: everything they detect may also be
detected by assignments generated later.  Reverse-order simulation
walks ``Ω`` from the last assignment to the first, keeps an assignment
only if its weighted sequence detects target faults no kept assignment
has covered yet, and drops the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.core.procedure import ProcedureResult
from repro.errors import ProcedureError
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.trace import trace_event, traced


@dataclass(frozen=True)
class ReverseOrderResult:
    """Outcome of reverse-order simulation.

    Attributes
    ----------
    kept:
        The non-redundant assignments, in original generation order.
    detected_by:
        Per kept assignment (same order), the target faults credited to
        it during the reverse pass.
    dropped:
        The redundant assignments that were removed.
    """

    kept: Tuple[WeightAssignment, ...]
    detected_by: Tuple[Tuple[Fault, ...], ...]
    dropped: Tuple[WeightAssignment, ...]

    @property
    def n_kept(self) -> int:
        """Number of surviving assignments — the paper's ``seq`` column."""
        return len(self.kept)


def reverse_order_simulation(
    circuit: Circuit,
    result: ProcedureResult,
    compiled: CompiledCircuit | None = None,
    simulator=None,
    runtime=None,
    sim_backend=None,
) -> ReverseOrderResult:
    """Remove redundant weight assignments from ``result.omega``.

    Assignments are re-simulated in reverse generation order against
    the shrinking target set; an assignment detecting nothing new is
    dropped.  The union of kept assignments is verified to cover every
    target fault.

    ``simulator`` defaults to the stuck-at fault simulator; pass the
    same simulator the procedure ran with when targeting a different
    fault model.  ``runtime`` and ``sim_backend`` (both ignored when
    ``simulator`` is given) plug the default simulator into the cache
    and pick its backend.
    """
    comp = compiled or compile_circuit(circuit)
    sim = (
        simulator
        if simulator is not None
        else FaultSimulator(circuit, comp, runtime=runtime, backend=sim_backend)
    )
    # Kept in fault order, so every simulation sees it sorted.
    pending: List[Fault] = sorted(result.target_faults)

    kept_rev: List[WeightAssignment] = []
    credited_rev: List[Tuple[Fault, ...]] = []
    dropped: List[WeightAssignment] = []

    with traced(runtime, "reverse_order_sim", entries=len(result.omega)):
        for index in range(len(result.omega) - 1, -1, -1):
            entry = result.omega[index]
            assignment = entry.assignment
            if not pending:
                dropped.append(assignment)
                trace_event(
                    runtime, "reverse", index=index, kept=False, detected=0
                )
                continue
            rng = (
                result.generation_rng(index) if assignment.has_random else None
            )
            t_g = assignment.stimulus(result.l_g, rng)
            detections = sim.run(t_g, pending).detection_time
            if detections:
                kept_rev.append(assignment)
                credited_rev.append(tuple(sorted(detections)))
                pending = [f for f in pending if f not in detections]
            else:
                dropped.append(assignment)
            trace_event(
                runtime,
                "reverse",
                index=index,
                kept=bool(detections),
                detected=len(detections),
            )

    if pending:
        raise ProcedureError(
            f"reverse-order simulation left {len(pending)} target faults "
            "uncovered; Ω no longer detects its own target set"
        )

    return ReverseOrderResult(
        kept=tuple(reversed(kept_rev)),
        detected_by=tuple(reversed(credited_rev)),
        dropped=tuple(dropped),
    )
