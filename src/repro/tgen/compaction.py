"""Static compaction of sequential test sequences.

Implements omission-based static compaction in the spirit of the
vector-omission/restoration techniques of Pomeranz & Reddy: time units
are tentatively removed and the shortened sequence is re-fault-simulated;
the removal is kept only if the target fault set stays fully detected.
Block sizes shrink geometrically (delta-debugging style), so large
useless stretches go quickly while single-vector omission still runs at
the end.

One loop, :func:`_omit_blocks`, offers the candidates on both backends;
each backend decides them its own way, never re-simulating the
unchanged prefix.  The candidates, their order and the number of checks
are those of the cycle-0 formulation; only their cost changes.

*The base.*  One run of the input sequence truncates it at the cycle by
which every target is detected.  Dropping ``current[start:start +
block]`` leaves the prefix ``current[:start]`` as it was, so a check
starts from the accepted sequence's state at ``start``.  The candidate's
cycle ``c`` and the accepted sequence's *aligned* cycle ``c + block``
apply the same inputs from then on.

*The vector check* (:class:`~repro.sim.vector.engine.VectorCompaction`)
runs one kernel over every target lane, which never drops a lane.  The
base run keeps the flip-flop words before each cycle and each cycle's
detections; ``after[a]`` is the OR of the detections at ``a`` and
later.  A check's open set ``U`` holds the targets not detected before
``start``.  Before each step, the candidate's words are compared with
the base's at the aligned cycle ``a``.  Once the good machine agrees,
an agreeing lane of ``U`` repeats the base's future, since a machine's
next state (ternary X included) depends only on its state and its
input: the check rejects when such a lane is not in ``after[a]``, and
otherwise drops it from ``U``.  Detections drop lanes too, and the
check accepts when ``U`` is empty.  Most checks are decided within a
few cycles of ``start`` (g208: 625 kernel steps for the 60 checks of
its flow, where stepping each tail took 3,407).  An accepted check
steps on until every lane agrees and splices its cycles into the base;
from there the base is the old one shifted by ``block``.

*The oracle's check* keeps an
:class:`~repro.sim.faultsim.IncrementalFaultSimulator` snapshot before
every cycle of the accepted sequence, resumes from the one at
``start`` with only the faults still undetected there, and steps the
candidate's tail until no target is left.  An accepted check's own
snapshots replace the stale suffix.  It is the reference the vector
check is proven against.

*Memory.*  The vector base keeps O(len(T) · lanes · n_ff) bits: two
full-width words per flip-flop per cycle.  It keeps only every
``stride``-th cycle, the stride doubled until the kept states fit
:data:`~repro.sim.vector.engine.BASE_BUDGET` (g1423 keeps every eighth,
every benchmark circuit every cycle).  A check re-steps a stored-out
cycle from the nearest kept one, and steps the base's aligned cycles in
lock-step beside the candidate.  The oracle's snapshots hold only the
survivors, which a detecting step repacks once they fit in half the
groups.

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
from repro.sim.backend import resolve_backend
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault, validate_fault
from repro.sim.faultsim import IncrementalFaultSimulator
from repro.sim.values import Value
from repro.sim.vector.engine import VectorCompaction
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
        checks = _checks(circuit, faults, compiled, sim_backend)
        patterns, n_checks = _omit_blocks(
            checks, sequence.patterns, max_simulations
        )
        current = TestSequence(patterns)
        return CompactionResult(
            sequence=current,
            original_length=original_length,
            compacted_length=len(current),
            n_simulations=n_checks,
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


def _checks(
    circuit: Circuit,
    faults: List[Fault],
    compiled: CompiledCircuit | None,
    sim_backend,
):
    """The backend's checker: re-convergence on the vector backend, the
    resumed checks of the oracle otherwise."""
    if resolve_backend(sim_backend) != "vector":
        return _ResumedChecks(
            IncrementalFaultSimulator(circuit, faults, compiled, "python")
        )
    for fault in faults:
        validate_fault(circuit, fault)
    flop_pos = {name: i for i, name in enumerate(circuit.flops)}
    return VectorCompaction(compiled or compile_circuit(circuit), flop_pos, faults)


class _ResumedChecks:
    """The oracle's checks: each resumes from a snapshot of the
    accepted sequence and steps the candidate's tail until no target is
    left.

    ``checkpoints[u]`` is the simulator state before cycle ``u`` of the
    accepted sequence, for every ``u`` below ``len(checkpoints)``; past
    the last detection any state with no target left serves.
    """

    def __init__(self, sim: IncrementalFaultSimulator) -> None:
        self._sim = sim
        self._checkpoints: List[tuple] = []

    def truncate(self, patterns: Sequence[Tuple[Value, ...]]) -> int:
        """Step ``patterns`` until every target is detected; return the
        length stepped."""
        sim = self._sim
        for pattern in patterns:
            self._checkpoints.append(sim.snapshot())
            sim.step(pattern)
            if not sim.n_remaining:
                break
        if sim.n_remaining:
            raise ValueError(
                f"sequence does not detect {sim.n_remaining} of the "
                "target faults"
            )
        return len(self._checkpoints)

    def accepts(
        self, current: Sequence[Tuple[Value, ...]], start: int, block: int
    ) -> bool:
        """Does ``current`` without ``current[start:start + block]``
        still detect every target?  An accepted candidate's snapshots
        replace the stale suffix."""
        sim = self._sim
        checkpoints = self._checkpoints
        if start >= len(checkpoints):
            # An accepted check stops once every target is detected, so
            # the last checkpoint holds for every later cycle.
            checkpoints += [checkpoints[-1]] * (start + 1 - len(checkpoints))
        sim.restore(checkpoints[start])
        trial = [checkpoints[start]]
        for pattern in current[start + block :]:
            if not sim.n_remaining:
                break
            sim.step(pattern)
            trial.append(sim.snapshot())
        if sim.n_remaining:
            return False
        checkpoints[start:] = trial
        return True


def _omit_blocks(
    checks,
    patterns: Tuple[Tuple[Value, ...], ...],
    max_simulations: int,
) -> Tuple[Tuple[Tuple[Value, ...], ...], int]:
    """The omission loop; returns (patterns, checks spent).

    ``checks`` is either backend's checker: ``truncate(patterns)``
    runs the input once and returns the length up to its last needed
    detection, and ``accepts(current, start, block)`` decides one
    candidate and, when it holds, adopts it as the accepted sequence.
    """
    # Free truncation: nothing after the last detection time is useful.
    current = patterns[: checks.truncate(patterns)]
    n_checks = 1
    block = max(1, len(current) // 2)
    while block >= 1 and n_checks < max_simulations:
        start = len(current) - block
        progressed = False
        while start >= 0 and n_checks < max_simulations:
            tail = current[start + block :]
            if start or tail:
                n_checks += 1
                if checks.accepts(current, start, block):
                    current = current[:start] + tail
                    progressed = True
                    start -= block
                    continue
            start -= max(1, block // 2) if block > 1 else 1
        if block == 1 and not progressed:
            break
        block //= 2
    return current, n_checks


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
