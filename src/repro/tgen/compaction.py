"""Static compaction of sequential test sequences.

Implements omission-based static compaction in the spirit of the
vector-omission/restoration techniques of Pomeranz & Reddy: time units
are tentatively removed and the shortened sequence is re-fault-simulated;
the removal is kept only if the target fault set stays fully detected.
Block sizes shrink geometrically (delta-debugging style), so large
useless stretches go quickly while single-vector omission still runs at
the end.

A check never re-simulates the unchanged prefix.  One run of the input
sequence (which also truncates it after its last detection) keeps an
:class:`~repro.sim.faultsim.IncrementalFaultSimulator` snapshot before
every cycle.  Dropping ``current[start:start + block]`` leaves the
prefix ``current[:start]`` as it was, so the candidate reaches exactly
the snapshot at ``start`` — with only the faults still undetected there
— and the check steps just the candidate's tail, until no target is
left.  An accepted check's own snapshots replace the stale suffix.  The
candidates, their order and the number of checks are those of the
cycle-0 formulation; only their cost changes.

The snapshots cost O(len(T) · words · n_ff) memory: one copy of every
flip-flop's state words (on the oracle, of every 63-fault group's) per
cycle of the accepted sequence.  A step that detects repacks the
survivors once they fit in half the words or groups, so a snapshot
past the first detections holds few of them.

With a runtime whose artifact cache is on, the whole
:class:`CompactionResult` is one cache entry, keyed by
:func:`compaction_key`.

The paper applies exactly this kind of static compaction to the
STRATEGATE/SEQCOM sequences before mining weights from them; shorter
``T`` directly shortens the mined subsequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.runtime.cache import cached_phase
from repro.runtime.keys import (
    circuit_fingerprint,
    faults_fingerprint,
    simulation_key,
    stimulus_fingerprint,
)
from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault
from repro.sim.faultsim import IncrementalFaultSimulator
from repro.sim.values import Value
from repro.tgen.sequence import TestSequence
from repro.trace import traced


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of static compaction.

    Attributes
    ----------
    sequence:
        The compacted sequence (detects the full target set).
    original_length / compacted_length:
        Lengths before and after.
    n_simulations:
        Checks spent: the truncation run plus one per candidate.
    """

    sequence: TestSequence
    original_length: int
    compacted_length: int
    n_simulations: int

    @property
    def reduction(self) -> float:
        """Fractional length reduction achieved."""
        if not self.original_length:
            return 0.0
        return 1.0 - self.compacted_length / self.original_length


def compaction_key(
    circuit_fp: str,
    sequence: TestSequence,
    target_faults: Sequence[Fault],
    max_simulations: int,
) -> str:
    """The artifact-cache key of one compaction: the circuit, the input
    sequence, the targets and the budget (never the backend)."""
    return simulation_key(
        circuit_fp,
        stimulus_fingerprint(sequence.patterns),
        faults_fingerprint(target_faults),
        {"kind": "compaction", "budget": max_simulations},
    )


def compact_sequence(
    circuit: Circuit,
    sequence: TestSequence,
    target_faults: Sequence[Fault],
    max_simulations: int = 200,
    compiled: CompiledCircuit | None = None,
    runtime=None,
    sim_backend=None,
) -> CompactionResult:
    """Statically compact ``sequence`` while preserving detection of
    every fault in ``target_faults``.

    Parameters
    ----------
    circuit:
        The circuit under test.
    sequence:
        A sequence known to detect all of ``target_faults``.
    target_faults:
        The faults that must remain detected.
    max_simulations:
        Budget of fault-simulation checks; compaction stops early when
        it is exhausted (the current best sequence is returned).
    compiled:
        Optional pre-compiled circuit to reuse.
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext`; with
        its artifact cache on, the result is cached whole.
    sim_backend:
        Fault-simulation backend (results are backend-independent).
    """
    faults = list(target_faults)
    original_length = len(sequence)
    if not faults or not len(sequence):
        return CompactionResult(sequence, original_length, len(sequence), 0)

    def compute() -> CompactionResult:
        sim = IncrementalFaultSimulator(
            circuit, faults, compiled, backend=sim_backend
        )
        patterns, checks = _omit_blocks(sim, sequence.patterns, max_simulations)
        current = TestSequence(patterns)
        return CompactionResult(
            sequence=current,
            original_length=original_length,
            compacted_length=len(current),
            n_simulations=checks,
        )

    with traced(
        runtime,
        "static_compaction",
        length=original_length,
        budget=max_simulations,
    ):
        return cached_phase(
            runtime,
            "compaction",
            lambda: compaction_key(
                circuit_fingerprint(circuit), sequence, faults, max_simulations
            ),
            lambda payload: _result_from_payload(
                payload, original_length, len(circuit.inputs)
            ),
            compute,
            _result_payload,
        )


def _omit_blocks(
    sim: IncrementalFaultSimulator,
    patterns: Tuple[Tuple[Value, ...], ...],
    max_simulations: int,
) -> Tuple[Tuple[Tuple[Value, ...], ...], int]:
    """The omission loop over checkpoints; returns (patterns, checks).

    ``checkpoints[u]`` is the simulator state before cycle ``u`` of
    ``current``, for every ``u`` below ``len(checkpoints)``; past the
    last detection any state with no target left serves.
    """
    # Free truncation: nothing after the last detection time is useful.
    checkpoints: List[tuple] = []
    for pattern in patterns:
        checkpoints.append(sim.snapshot())
        sim.step(pattern)
        if not sim.n_remaining:
            break
    checks = 1
    if sim.n_remaining:
        raise ValueError(
            f"sequence does not detect {sim.n_remaining} of the "
            "target faults"
        )
    current = patterns[: len(checkpoints)]

    def resumed_check(start: int, tail) -> Optional[List[tuple]]:
        """The candidate's checkpoints from ``start`` on when it still
        detects every target, else None."""
        sim.restore(checkpoints[start])
        trial = [checkpoints[start]]
        for pattern in tail:
            if not sim.n_remaining:
                break
            sim.step(pattern)
            trial.append(sim.snapshot())
        return None if sim.n_remaining else trial

    block = max(1, len(current) // 2)
    while block >= 1 and checks < max_simulations:
        start = len(current) - block
        if start >= len(checkpoints):
            # An accepted check stops once every target is detected, so
            # the last checkpoint holds for every later cycle: nothing
            # is left to detect.  Extending is not a check.
            checkpoints += [checkpoints[-1]] * (start + 1 - len(checkpoints))
        progressed = False
        while start >= 0 and checks < max_simulations:
            tail = current[start + block :]
            if start or tail:
                checks += 1
                trial = resumed_check(start, tail)
                if trial is not None:
                    current = current[:start] + tail
                    checkpoints[start:] = trial
                    progressed = True
                    start -= block
                    continue
            start -= max(1, block // 2) if block > 1 else 1
        if block == 1 and not progressed:
            break
        block //= 2
    return current, checks


def _result_payload(result: CompactionResult) -> dict:
    """JSON-serializable cache payload for a :class:`CompactionResult`."""
    return {
        "sequence": list(result.sequence.to_strings()),
        "original_length": result.original_length,
        "n_simulations": result.n_simulations,
    }


def _result_from_payload(
    payload: Optional[dict], original_length: int, width: int
) -> Optional[CompactionResult]:
    """Rebuild a cached result; None when the payload does not fit this
    request (treated as a miss)."""
    try:
        rows = payload["sequence"]
        n_simulations = payload["n_simulations"]
        if (
            payload["original_length"] != original_length
            or not isinstance(rows, list)
            or not 0 < len(rows) <= original_length
            or not all(isinstance(r, str) and len(r) == width for r in rows)
            or type(n_simulations) is not int
            or n_simulations < 1
        ):
            return None
        sequence = TestSequence.from_strings(rows)
    except (KeyError, TypeError, ValueError):
        return None
    return CompactionResult(
        sequence=sequence,
        original_length=original_length,
        compacted_length=len(sequence),
        n_simulations=n_simulations,
    )
