"""The overall weight-assignment selection procedure (Section 4.2).

Driven by a deterministic test sequence ``T`` and the detection times it
induces, the procedure builds the set ``Ω`` of weight assignments whose
weighted sequences jointly detect every fault ``T`` detects:

1. ``F`` ← faults detected by ``T``; record ``u_det(f)`` for each.
2. While ``F`` has undetected faults: pick the **largest** remaining
   detection time ``u`` (harder faults first — their sequences tend to
   detect many others).
3. For growing subsequence lengths ``L_S``: extend ``S`` by mining the
   length-``L_S`` tail reproducers at ``u``; build the candidate sets
   ``A_i``; enumerate assignment rows ``w_j`` (each must contain at
   least one length-``L_S`` subsequence); generate ``T_G`` of length
   ``L_G`` for each, screen it against a fault sample (the paper's
   simulation-effort shortcut), fully simulate survivors, and drop the
   faults detected, storing useful assignments in ``Ω``.
4. ``L_S = u + 1`` reproduces ``T`` exactly through time ``u``, so the
   loop over ``L_S`` always terminates with every fault of detection
   time ``u`` detected (``L_G >= len(T)`` is enforced).

Deviations from the paper, both configurable:

* ``ls_schedule`` — the paper steps ``L_S`` by 1.  The default here is
  ``"auto"``: dense (1..4), then geometric with ratio 1.5, then
  ``u + 1`` — the same guarantees with far fewer fault simulations
  (this matters in pure Python; the authors had a compiled simulator).
  Use ``"dense"`` for the paper-exact schedule.
* An assignment that was *fully simulated* before is never re-simulated
  (detections against a shrunken fault set are a subset of what it
  detected before, so re-simulation cannot help).  Assignments that
  were only screened out may be retried at later iterations, which
  keeps the termination guarantee intact.

Batched screening (vector backend): candidate rows are screened in
*speculative batches* of 8, which share one multi-block kernel pass.  A
batch's verdicts are all computed against the procedure state at batch
start; rows are then consumed strictly in order, and the moment one
row's full simulation detects faults (i.e. mutates ``remaining`` /
``Ω``) the rest of the batch is discarded and re-gathered under the new
state.  A negative screen leaves the state untouched, so its verdict is
exactly the one a row-by-row run would have computed — ``Ω``, every
:class:`OmegaEntry` and every :class:`ProcedureStats` counter are
bit-identical to it.  The procedure runs in the calling process
whatever the runtime's worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.core.candidates import (
    MatchCounts,
    assignment_row,
    candidate_sets,
    max_rows,
    promote_full_length,
)
from repro.core.weight import RandomWeight, Weight, mine_weight
from repro.core.weight_set import WeightSet
from repro.errors import ProcedureError
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.collapse import collapse_faults
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.sim.stimulus import PeriodicStimulus
from repro.tgen.sequence import TestSequence
from repro.trace import trace_event, traced
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class ProcedureConfig:
    """Tunable knobs of the selection procedure.

    Attributes
    ----------
    l_g:
        Length of every weighted sequence ``T_G`` (the paper uses 2000).
        Raised to ``len(T)`` automatically when shorter — required for
        the termination guarantee.
    sample_size:
        Fault-sample size for the screening shortcut (Section 4.2).
    ls_schedule:
        ``"auto"`` (default, dense-then-geometric) or ``"dense"``
        (paper-exact ``L_S`` = 1, 2, 3, ...).
    sort_by_matches:
        Sort candidate sets by ``n_m`` (Section 4.1).  Ablation switch.
    promote:
        Apply the full-length promotion rule (Section 4.1).  Ablation
        switch.
    allow_random_weight:
        Offer the pseudo-random weight as an additional candidate for
        every input (the paper's future-work extension, Section 6).
    max_rows_per_length:
        Optional cap on assignment rows tried per ``(u, L_S)`` pair.
    seed:
        Seed for pseudo-random weights (unused otherwise).
    """

    l_g: int = 2000
    sample_size: int = 32
    ls_schedule: str = "auto"
    sort_by_matches: bool = True
    promote: bool = True
    allow_random_weight: bool = False
    max_rows_per_length: Optional[int] = None
    seed: int = 1


@dataclass(frozen=True)
class OmegaEntry:
    """One useful weight assignment, with provenance.

    Attributes
    ----------
    assignment:
        The weight assignment stored in ``Ω``.
    detected:
        Faults its weighted sequence newly detected when generated.
    u / l_s / row:
        The detection time, subsequence length, and candidate row the
        assignment was constructed from.
    """

    assignment: WeightAssignment
    detected: Tuple[Fault, ...]
    u: int
    l_s: int
    row: int


@dataclass
class ProcedureStats:
    """Simulation-effort counters."""

    assignments_tried: int = 0
    sample_screens: int = 0
    sample_skips: int = 0
    full_simulations: int = 0
    duplicate_skips: int = 0


@dataclass
class ProcedureResult:
    """Everything the procedure produced.

    Attributes
    ----------
    omega:
        The useful weight assignments, in generation order.
    weight_set:
        The final weight set ``S``.
    target_faults:
        ``F``: the faults the deterministic sequence detects.
    detection_time:
        ``u_det`` over ``target_faults``.
    l_g:
        The weighted-sequence length actually used.
    stats:
        Simulation-effort counters.
    rng_seed:
        Seed used for pseudo-random weights (reproducing ``T_G`` for an
        assignment with a random weight requires the same seed and
        assignment index).
    """

    omega: List[OmegaEntry]
    weight_set: WeightSet
    target_faults: Tuple[Fault, ...]
    detection_time: Dict[Fault, int]
    l_g: int
    stats: ProcedureStats = field(default_factory=ProcedureStats)
    rng_seed: int = 1

    @property
    def assignments(self) -> List[WeightAssignment]:
        """The assignments of ``Ω`` in generation order."""
        return [entry.assignment for entry in self.omega]

    @property
    def n_subsequences(self) -> int:
        """Distinct deterministic subsequences used across ``Ω``."""
        distinct: Set[Weight] = set()
        for entry in self.omega:
            distinct.update(entry.assignment.deterministic_weights())
        return len(distinct)

    @property
    def max_subsequence_length(self) -> int:
        """Longest subsequence used by any assignment in ``Ω``."""
        return max(
            (entry.assignment.max_length for entry in self.omega), default=0
        )

    def generation_rng(self, entry_index: int) -> DeterministicRng:
        """The rng used to expand random weights of assignment ``entry_index``."""
        return DeterministicRng(self.rng_seed).fork(entry_index)


def _ls_lengths(u: int, schedule: str) -> List[int]:
    """The ``L_S`` values visited for detection time ``u``."""
    limit = u + 1
    if schedule == "dense":
        return list(range(1, limit + 1))
    if schedule != "auto":
        raise ProcedureError(f"unknown ls_schedule {schedule!r}")
    lengths: List[int] = []
    l_s = 1
    while l_s < limit:
        lengths.append(l_s)
        l_s = l_s + 1 if l_s < 4 else max(l_s + 1, int(l_s * 1.5))
    lengths.append(limit)
    return lengths


@dataclass
class _RowCandidate:
    """One gathered candidate row awaiting (speculative) screening.

    ``t_g`` is None for rows that were already fully simulated at
    gather time — they are carried through so the consume loop counts
    them exactly as the serial run does.
    """

    row: int
    assignment: WeightAssignment
    t_g: Optional[PeriodicStimulus]


def select_weight_assignments(
    circuit: Circuit,
    sequence: TestSequence,
    faults: Sequence[Fault] | None = None,
    config: ProcedureConfig | None = None,
    compiled: CompiledCircuit | None = None,
    simulator=None,
    runtime=None,
    sim_backend: Optional[str] = None,
) -> ProcedureResult:
    """Run the paper's overall procedure (Section 4.2).

    Parameters
    ----------
    circuit:
        The circuit under test.
    sequence:
        The deterministic test sequence ``T``.
    faults:
        Fault universe; defaults to the collapsed stuck-at list.  Only
        the faults ``T`` detects become targets.
    config:
        Procedure knobs; defaults to :class:`ProcedureConfig`.
    compiled:
        Optional pre-compiled circuit to reuse.
    simulator:
        Fault simulator to grade sequences with; defaults to the
        stuck-at :class:`FaultSimulator`.  Any object with compatible
        ``run`` / ``detects_any`` works — passing a
        :class:`~repro.sim.transition.TransitionFaultSimulator`
        retargets the whole procedure at delay faults (the follow-up
        the paper's [11]/[15] discussion suggests).  The coverage
        guarantee holds for any such simulator whose detections depend
        only on the applied stimulus prefix.
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext`.  Its
        cache serves repeated screens and simulations; the result is
        identical with or without it.
    sim_backend:
        Fault-simulation backend for the default simulator
        (``"auto"``/``"python"``/``"vector"``; ignored when
        ``simulator`` is given).  Results are backend-independent.

    Returns
    -------
    A :class:`ProcedureResult` whose ``omega`` detects every target
    fault (guaranteed by construction).
    """
    cfg = config or ProcedureConfig()
    if not len(sequence):
        raise ProcedureError("the deterministic test sequence is empty")
    if sequence.width != len(circuit.inputs):
        raise ProcedureError(
            f"sequence width {sequence.width} != circuit inputs {len(circuit.inputs)}"
        )
    comp = compiled or compile_circuit(circuit)
    sim = (
        simulator
        if simulator is not None
        else FaultSimulator(circuit, comp, runtime=runtime, backend=sim_backend)
    )
    if faults is None:
        faults = collapse_faults(circuit)
    # Speculative screening batches pay off with the vector backend:
    # several candidate sequences share one multi-block kernel pass.
    batch_size = 8 if getattr(sim, "backend", None) == "vector" else 1

    l_g = max(cfg.l_g, len(sequence))
    with traced(runtime, "initial_simulation", faults=len(faults)):
        detection_time = sim.run(
            sequence.patterns, list(faults)
        ).detection_time
    targets: Tuple[Fault, ...] = tuple(sorted(detection_time))
    # Kept in fault order, so every simulation sees it sorted.
    remaining: List[Fault] = list(targets)

    weight_set = WeightSet()
    counts = MatchCounts(sequence)
    omega: List[OmegaEntry] = []
    stats = ProcedureStats()
    fully_simulated: Set[WeightAssignment] = set()
    rng_root = DeterministicRng(cfg.seed)
    random_candidate = (RandomWeight(), len(sequence) // 2)

    while remaining:
        u = max(detection_time[f] for f in remaining)
        at_u = {f for f in remaining if detection_time[f] == u}

        with traced(runtime, "target_time", u=u, pending=len(remaining)):
            for l_s in _ls_lengths(u, cfg.ls_schedule):
                if not at_u:
                    break
                with traced(runtime, "mine_candidates", u=u, l_s=l_s):
                    weight_set.extend_from(sequence, u, l_s)
                    cands = candidate_sets(
                        sequence,
                        u,
                        weight_set,
                        l_s,
                        sort_by_matches=cfg.sort_by_matches,
                        counts=counts,
                    )
                    if cfg.promote:
                        cands = promote_full_length(cands, l_s)
                    if cfg.allow_random_weight:
                        cands = [
                            list(a_i) + [random_candidate] for a_i in cands
                        ]

                    row_limit = max_rows(cands)
                    if cfg.max_rows_per_length is not None:
                        row_limit = min(row_limit, cfg.max_rows_per_length)

                with traced(
                    runtime, "screen_rows", u=u, l_s=l_s, rows=row_limit
                ):
                    j = 0
                    while j < row_limit and at_u:
                        # Gather the next batch of candidate rows.  Row
                        # filters here are either pure (length rule) or
                        # speculative (the fully-simulated check is re-run
                        # at consume time); T_G generation uses the current
                        # Ω size for the random weight's rng fork — valid
                        # for every row up to and including the first state
                        # change, after which the batch is discarded and
                        # re-gathered anyway.
                        batch: List[_RowCandidate] = []
                        while j < row_limit and len(batch) < batch_size:
                            row = assignment_row(cands, j)
                            j += 1
                            if not any(
                                (not w.is_random) and w.length == l_s
                                for w in row
                            ):
                                continue
                            assignment = WeightAssignment(row)
                            if assignment in fully_simulated:
                                batch.append(
                                    _RowCandidate(j - 1, assignment, None)
                                )
                                continue
                            rng = (
                                rng_root.fork(len(omega))
                                if assignment.has_random
                                else None
                            )
                            batch.append(
                                _RowCandidate(
                                    j - 1,
                                    assignment,
                                    assignment.stimulus(l_g, rng),
                                )
                            )
                        if not batch:
                            continue

                        # Screening shortcut: a sample including the
                        # target fault.
                        target = max(at_u)  # deterministic pick among ties
                        sample = _fault_sample(
                            target, remaining, cfg.sample_size
                        )
                        to_screen = [c for c in batch if c.t_g is not None]
                        if batch_size > 1 and len(to_screen) > 1:
                            verdicts = sim.detects_any_batch(
                                [c.t_g for c in to_screen], sample
                            )
                        else:
                            verdicts = [
                                sim.detects_any(c.t_g, sample)
                                for c in to_screen
                            ]
                        verdict_of = dict(
                            zip((id(c) for c in to_screen), verdicts)
                        )

                        # Consume strictly in row order — serial semantics.
                        for pos, cand in enumerate(batch):
                            stats.assignments_tried += 1
                            if cand.assignment in fully_simulated:
                                stats.duplicate_skips += 1
                                continue
                            stats.sample_screens += 1
                            if not verdict_of[id(cand)]:
                                stats.sample_skips += 1
                                continue

                            stats.full_simulations += 1
                            fully_simulated.add(cand.assignment)
                            result = sim.run(cand.t_g, remaining)
                            if result.detection_time:
                                detected = tuple(
                                    sorted(result.detection_time)
                                )
                                omega.append(
                                    OmegaEntry(
                                        assignment=cand.assignment,
                                        detected=detected,
                                        u=u,
                                        l_s=l_s,
                                        row=cand.row,
                                    )
                                )
                                trace_event(
                                    runtime,
                                    "omega",
                                    u=u,
                                    l_s=l_s,
                                    row=cand.row,
                                    detected=len(detected),
                                )
                                remaining = [
                                    f
                                    for f in remaining
                                    if f not in result.detection_time
                                ]
                                at_u.difference_update(detected)
                                # The state changed: every later
                                # speculative verdict is stale.  Rewind
                                # and re-gather.
                                discarded = len(batch) - pos - 1
                                if discarded and runtime is not None:
                                    runtime.stats.speculative_discards += (
                                        discarded
                                    )
                                j = cand.row + 1
                                break

                if at_u and l_s == u + 1:
                    # Safety net for ablation configurations (promotion
                    # off, row caps): the assignment of the mined
                    # length-(u+1) weights reproduces T exactly through
                    # time u, so it is guaranteed to detect everything
                    # still pending at u.  With the paper's default
                    # configuration the promoted row 0 is this assignment
                    # and this branch never fires.
                    guarantee = WeightAssignment(
                        [
                            mine_weight(sequence.restrict(i), u, u + 1)
                            for i in range(sequence.width)
                        ]
                    )
                    stats.assignments_tried += 1
                    if guarantee not in fully_simulated:
                        t_g = guarantee.stimulus(l_g)
                        stats.full_simulations += 1
                        fully_simulated.add(guarantee)
                        result = sim.run(t_g, remaining)
                        if result.detection_time:
                            detected = tuple(sorted(result.detection_time))
                            omega.append(
                                OmegaEntry(
                                    assignment=guarantee,
                                    detected=detected,
                                    u=u,
                                    l_s=u + 1,
                                    row=-1,
                                )
                            )
                            trace_event(
                                runtime,
                                "omega",
                                u=u,
                                l_s=u + 1,
                                row=-1,
                                detected=len(detected),
                            )
                            remaining = [
                                f
                                for f in remaining
                                if f not in result.detection_time
                            ]
                            at_u.difference_update(detected)
                    if at_u:
                        raise ProcedureError(
                            f"faults at detection time {u} survived the "
                            f"exact replay of T[0..{u}]; simulator "
                            "inconsistency"
                        )

    return ProcedureResult(
        omega=omega,
        weight_set=weight_set,
        target_faults=targets,
        detection_time=detection_time,
        l_g=l_g,
        stats=stats,
        rng_seed=cfg.seed,
    )


def _fault_sample(
    target: Fault, remaining: List[Fault], sample_size: int
) -> List[Fault]:
    """The screening sample: the target fault plus an evenly spaced
    selection of the other remaining faults (``remaining`` is sorted,
    so the selection is deterministic)."""
    others = [f for f in remaining if f != target]
    if len(others) > sample_size - 1 > 0:
        stride = len(others) / (sample_size - 1)
        others = [others[int(k * stride)] for k in range(sample_size - 1)]
    return [target] + others
