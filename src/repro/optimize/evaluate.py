"""Deduplicated, cached fitness evaluation.

The expensive part of the search is fault-simulating candidate phases.
Three layers keep it cheap without ever changing a result:

1. **In-memory memo** — a phase is ``(assignment, window)``; repeated
   occurrences across genomes and generations are simulated once per
   process.
2. **Content-addressed artifact cache** — uncached phases are looked up
   in the runtime's disk cache under
   ``simulation_key(circuit, T_G, F, {"kind": "optimize_phase"})``; a
   rerun (or another job on the same machine) reuses them.
3. **One in-process pass** — the phases still pending after both layers
   are simulated in the calling process, all of them in one multi-block
   vector kernel pass (``FaultSimulator.run_batch``), so the outcome is
   the same for any worker count.

The TPG-area objective is memoized per (assignment tuple, window):
synthesis is pure, so the memo is exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.circuit.bench import write_bench
from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.hw.cost import tpg_cost
from repro.hw.tpg import synthesize_tpg
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault, FaultPruner, fault_name
from repro.sim.faultsim import FaultSimulator
from repro.trace import trace_event

#: A phase is one weight assignment applied for one window of cycles.
PhaseKey = Tuple[Tuple[str, ...], int]


def phase_key(assignment: WeightAssignment, window: int) -> PhaseKey:
    """Hashable content key of one phase."""
    return (tuple(str(w) for w in assignment.weights), window)


class PhaseEvaluator:
    """Evaluates phases to the sets of target faults they detect.

    Parameters
    ----------
    circuit:
        The circuit under test.
    target_faults:
        The paper's ``F`` — the faults coverage is counted over, in a
        fixed canonical order (group packing depends on it).
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext`; plugs
        in the artifact cache and the runtime stats.  Results never
        depend on it.
    pruner:
        Optional :class:`~repro.sim.faults.FaultPruner`.  Faults it
        certifies untestable are excluded from the simulation groups
        only; ``self.faults`` (and with it every cache key, payload
        denominator and coverage count) still spans the full target
        list, so results — and cached artifacts — are shared verbatim
        with unpruned evaluators.
    backend:
        Fault-simulation backend selector (resolved against ``runtime``
        and the environment, see
        :func:`repro.sim.backend.resolve_backend`).  Detected sets —
        and the cache entries keyed purely by content — are identical
        on either backend.
    """

    def __init__(
        self,
        circuit: Circuit,
        target_faults: Sequence[Fault],
        runtime=None,
        compiled: CompiledCircuit | None = None,
        pruner: Optional[FaultPruner] = None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.sim.backend import resolve_backend

        self.circuit = circuit
        self.comp = compiled or compile_circuit(circuit)
        self.faults: Tuple[Fault, ...] = tuple(target_faults)
        self.runtime = runtime
        self.backend = resolve_backend(backend, runtime)
        if pruner is not None:
            kept, _ = pruner.split(self.faults)
            self._sim_faults: Tuple[Fault, ...] = tuple(kept)
        else:
            self._sim_faults = self.faults
        self._bench_text = write_bench(circuit)
        self._memo: Dict[PhaseKey, FrozenSet[str]] = {}
        self._area_memo: Dict[Tuple[Tuple[Tuple[str, ...], ...], int], float] = {}
        self._fingerprints: Optional[Tuple[str, str]] = None

    # -- coverage -----------------------------------------------------------

    def evaluate_phases(
        self, phases: Sequence[Tuple[WeightAssignment, int]]
    ) -> List[FrozenSet[str]]:
        """Detected target-fault names for each phase, in phase order.

        Every phase starts from the all-X state (the hardware restarts
        its FSMs — and the CUT is not reset, but each window is
        simulated independently exactly as the greedy procedure
        simulated its candidate windows).
        """
        order: List[PhaseKey] = []
        stimuli: Dict[PhaseKey, Tuple[Tuple, ...]] = {}
        for assignment, window in phases:
            key = phase_key(assignment, window)
            if key in self._memo or key in stimuli:
                continue
            order.append(key)
            stimuli[key] = tuple(
                tuple(row) for row in assignment.generate(window)
            )
        pending = self._fill_from_cache(order, stimuli)
        self._simulate_pending(pending, stimuli)
        return [self._memo[phase_key(a, w)] for a, w in phases]

    def _cache_key(self, stimulus) -> Optional[str]:
        ctx = self.runtime
        if ctx is None or ctx.cache is None:
            return None
        from repro.runtime.keys import (
            faults_fingerprint,
            fingerprint,
            simulation_key,
            stimulus_fingerprint,
        )

        if self._fingerprints is None:
            self._fingerprints = (
                fingerprint(self._bench_text),
                faults_fingerprint(self.faults),
            )
        circuit_fp, faults_fp = self._fingerprints
        return simulation_key(
            circuit_fp,
            stimulus_fingerprint(stimulus),
            faults_fp,
            {"kind": "optimize_phase"},
        )

    def _fill_from_cache(
        self, order: List[PhaseKey], stimuli: Dict[PhaseKey, Tuple]
    ) -> List[PhaseKey]:
        """Resolve phases from the artifact cache; return the misses."""
        ctx = self.runtime
        pending: List[PhaseKey] = []
        for key in order:
            cache_key = self._cache_key(stimuli[key])
            payload = None if cache_key is None else ctx.cache.get(cache_key)
            detected = _detected_from_payload(payload, self.faults)
            if detected is not None:
                self._memo[key] = detected
                ctx.stats.full_sim_hits += 1
                trace_event(ctx, "cache_hit", op="optimize_phase", key=cache_key)
                continue
            if cache_key is not None:
                ctx.stats.cache_misses += 1
                trace_event(ctx, "cache_miss", op="optimize_phase", key=cache_key)
            pending.append(key)
        return pending

    def _simulate_pending(
        self, pending: List[PhaseKey], stimuli: Dict[PhaseKey, Tuple]
    ) -> None:
        """Simulate the remaining phases in this process, in order.

        Only the kept faults are simulated — certified-untestable faults
        cannot contribute detections, so the detected-name sets (and
        everything cached under ``self.faults``) are unchanged.  The
        vector backend runs all pending phases in one batched pass.
        """
        if not pending:
            return
        sim = FaultSimulator(self.circuit, self.comp, backend=self.backend)
        results = sim.run_batch(
            [list(stimuli[key]) for key in pending], list(self._sim_faults)
        )
        for key, result in zip(pending, results):
            names = [fault_name(f) for f in result.detection_time]
            self._store(key, frozenset(names), stimuli[key])

    def _store(self, key: PhaseKey, detected: FrozenSet[str], stimulus) -> None:
        self._memo[key] = detected
        ctx = self.runtime
        if ctx is not None:
            ctx.stats.full_simulations += 1
            cache_key = self._cache_key(stimulus)
            if cache_key is not None:
                ctx.cache.put(
                    cache_key,
                    {"n_faults": len(self.faults), "detected": sorted(detected)},
                )

    # -- area ---------------------------------------------------------------

    def area(
        self, assignments: Sequence[WeightAssignment], l_g: int
    ) -> float:
        """Gate-equivalent TPG area for ``assignments`` at window ``l_g``.

        The genome's own assignments only — cheaper hardware for the
        schedule actually applied *is* the objective; the full-alphabet
        bank is stamped onto final saved designs, not charged to every
        candidate.
        """
        memo_key = (
            tuple(tuple(str(w) for w in a.weights) for a in assignments),
            l_g,
        )
        if memo_key not in self._area_memo:
            design = synthesize_tpg(
                list(assignments), l_g, input_names=self.circuit.inputs
            )
            self._area_memo[memo_key] = tpg_cost(design).gate_equivalents
        return self._area_memo[memo_key]


def _detected_from_payload(
    payload: object, faults: Sequence[Fault]
) -> Optional[FrozenSet[str]]:
    """Validate a cached phase payload; None = treat as a miss."""
    if not isinstance(payload, dict):
        return None
    if payload.get("n_faults") != len(faults):
        return None
    detected = payload.get("detected")
    if not isinstance(detected, list):
        return None
    known = {fault_name(f) for f in faults}
    names = [str(n) for n in detected]
    if not set(names) <= known:
        return None
    return frozenset(names)
