"""Simulation-based sequential test generation.

This is the stand-in for STRATEGATE [24] / SEQCOM [25]: it produces the
deterministic test sequence ``T`` that drives the paper's weight
selection.  The generator is a greedy, fault-simulation-guided search:

1. At each time unit, draw ``candidates`` random input patterns and
   score each one against the remaining faults from the current
   circuit/fault state (no prefix re-simulation — the incremental
   simulator carries state forward).  All candidates are drawn before
   any is scored, and
   :meth:`~repro.sim.faultsim.IncrementalFaultSimulator.step_best`
   scores them together: on the vector backend one multi-block kernel
   step per time unit, so ``T`` costs ``len(T)`` kernel steps.
2. Commit the pattern detecting the most new faults; on a tie, prefer
   the earliest drawn (keeps the walk random).
3. If no progress happens for ``patience`` consecutive time units, the
   walk continues with purely random patterns (sequential faults often
   need long sensitizing runs before a detection burst).
4. Stop when every target fault is detected, or at ``max_len``.

The result is deterministic in the seed.  Coverage is whatever the walk
achieves — exactly like a real ATPG tool, the downstream procedure
treats the *detected set* as the target set, so the paper's "complete
fault coverage" claim (relative to ``T``) is preserved verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.collapse import collapse_faults
from repro.sim.faults import Fault
from repro.sim.faultsim import IncrementalFaultSimulator
from repro.tgen.sequence import TestSequence
from repro.util.rng import DeterministicRng

CANDIDATES = 4
"""Random patterns scored per time unit (the default ``candidates``)."""

PATIENCE = 64
"""Unproductive time units before dry-spell walking (the default
``patience``)."""


@dataclass(frozen=True)
class GeneratedTest:
    """Result of test generation.

    Attributes
    ----------
    sequence:
        The generated deterministic test sequence ``T``.
    detected:
        Faults the sequence detects (the downstream target set ``F``).
    undetected:
        Target faults the walk never detected.
    """

    sequence: TestSequence
    detected: Tuple[Fault, ...]
    undetected: Tuple[Fault, ...]

    @property
    def coverage(self) -> float:
        """Detected fraction of the target fault list."""
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


def generate_test_sequence(
    circuit: Circuit,
    faults: Sequence[Fault] | None = None,
    seed: int = 1,
    max_len: int = 4000,
    candidates: int = CANDIDATES,
    patience: int = PATIENCE,
    compiled: CompiledCircuit | None = None,
    sim_backend=None,
) -> GeneratedTest:
    """Generate a deterministic test sequence for ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit under test.
    faults:
        Target faults; defaults to the collapsed stuck-at list.
    seed:
        Seed for the deterministic random walk.
    max_len:
        Hard cap on sequence length.
    candidates:
        Random patterns scored per time unit; the best is committed.
        At least one is drawn.
    patience:
        After this many consecutive unproductive time units candidate
        scoring is suspended on three of every four units (a free
        random step), which is both faster and a useful perturbation.
    compiled:
        Optional pre-compiled circuit to reuse.
    sim_backend:
        Fault-simulation backend (results are backend-independent).
    """
    comp = compiled or compile_circuit(circuit)
    if faults is None:
        faults = collapse_faults(circuit)
    sim = IncrementalFaultSimulator(
        circuit, list(faults), comp, backend=sim_backend
    )
    rng = DeterministicRng(seed)
    n_pi = len(circuit.inputs)

    patterns: List[Tuple[int, ...]] = []
    detected: List[Fault] = []
    dry_run = 0
    since_regroup = 0

    while sim.n_remaining and len(patterns) < max_len:
        if dry_run >= patience and dry_run % 4 != 0:
            # Free-running random walk during dry spells: scoring every
            # step buys nothing when nothing is detectable nearby.
            pattern = rng.bits(n_pi)
            newly = sim.step(pattern)
        else:
            drawn = [rng.bits(n_pi) for _ in range(max(candidates, 1))]
            best, newly = sim.step_best(drawn)
            pattern = drawn[best]
        patterns.append(pattern)
        since_regroup += 1
        if newly:
            detected.extend(newly)
            dry_run = 0
            if since_regroup >= 128:
                sim.regroup()
                since_regroup = 0
        else:
            dry_run += 1

    sequence = TestSequence(patterns)
    undetected = tuple(sorted(sim.remaining_faults()))
    return GeneratedTest(
        sequence=sequence,
        detected=tuple(sorted(detected)),
        undetected=undetected,
    )
