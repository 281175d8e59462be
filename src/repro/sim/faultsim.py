"""Bit-parallel sequential stuck-at fault simulation (PROOFS-style).

Faults are simulated in groups: each group packs the fault-free machine
into bit 0 of an integer word and up to :data:`GROUP_FAULTS` faulty
machines into bits 1..63.  Every net holds a ``(ones, zeros)`` pair of
machine words (bit set in ``ones`` = that machine sees 1; in ``zeros``
= 0; in neither = X), so one pass of bitwise gate evaluations simulates
all machines of the group simultaneously.  Fault effects propagate into
the flip-flop words and therefore across clock cycles, as sequential
fault simulation requires.

Detection criterion (paper semantics, no reset): fault ``f`` is detected
at time ``u`` iff some primary output has a *binary* fault-free value
and the complementary binary value in ``f``'s machine.

Two front ends share the stepping engine:

* :class:`FaultSimulator` — whole-sequence runs with fault dropping,
  screening, and :meth:`~FaultSimulator.output_responses`, the
  every-position PO responses that MISR grading and fault dictionaries
  consume.
* :class:`IncrementalFaultSimulator` — pattern-at-a-time stepping, used
  by the simulation-based test generator to score candidate patterns.
  On the oracle it also takes snapshots, from which the oracle's static
  compaction resumes its checks.  Neither re-simulates the prefix.

:class:`FaultSimulator` optionally plugs into the runtime layer
(:mod:`repro.runtime`): given a
:class:`~repro.runtime.context.RuntimeContext` it serves repeated
``run`` / ``detects_any`` calls from the content-addressed artifact
cache and counts its simulations in the context's stats.  Every
simulation runs in the calling process.  The cache is behaviourally
invisible — results are identical to the uncached run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.bench import write_bench
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError, SimulationError
from repro.sim.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    compile_circuit,
)
from repro.sim.backend import resolve_backend
from repro.sim.faults import Fault, fault_name, validate_fault
from repro.sim.values import V0, V1, VX, Value
from repro.sim.vector.kernels import WORD_BITS
from repro.trace import trace_event

GROUP_FAULTS = WORD_BITS - 1
"""Faulty machines per simulation word (bit 0 is the good machine).

Derived from the vector kernel's word width rather than assuming the
host word size, so both backends agree on what one word holds.
"""


class _GroupSim:
    """Stepping engine for one group of up to 63 faults.

    Holds the circuit state words between steps.  ``step`` applies one
    input pattern, returns the mask of newly detected fault bits, and
    leaves the cycle's net values in :attr:`ones` / :attr:`zeros` for
    inspection (e.g. per-line discrepancy recording).
    """

    def __init__(
        self,
        comp: CompiledCircuit,
        flop_pos: Dict[str, int],
        group: Sequence[Fault],
    ) -> None:
        if len(group) > GROUP_FAULTS:
            raise SimulationError(f"group of {len(group)} exceeds {GROUP_FAULTS}")
        self.comp = comp
        self.full = (1 << (len(group) + 1)) - 1
        self.bit_fault: Dict[int, Fault] = {}

        stem_force: Dict[int, List[int]] = {}
        pin_force: Dict[int, Dict[int, List[int]]] = {}
        self._ff_force: Dict[int, List[int]] = {}
        for offset, fault in enumerate(group):
            bit = 1 << (offset + 1)
            self.bit_fault[offset + 1] = fault
            if fault.is_branch and fault.gate in flop_pos:
                slot = self._ff_force.setdefault(flop_pos[fault.gate], [0, 0, 0])
            elif fault.is_branch:
                gate_idx = comp.index[fault.gate]
                slot = pin_force.setdefault(gate_idx, {}).setdefault(
                    fault.pin, [0, 0, 0]
                )
            else:
                slot = stem_force.setdefault(comp.index[fault.net], [0, 0, 0])
            slot[fault.stuck] |= bit

        self._ops = tuple(
            (opcode, out, fanins, pin_force.get(out), stem_force.get(out))
            for opcode, out, fanins in comp.ops
        )
        self._pi_sf = [stem_force.get(idx) for idx in comp.pi_indices]
        self._ff_sf = [stem_force.get(idx) for idx in comp.ff_indices]
        self._stem_force = stem_force

        self.ones = [0] * comp.n_nets
        self.zeros = [0] * comp.n_nets
        self.state: List[Tuple[int, int]] = [(0, 0)] * len(comp.ff_indices)
        self.active = self.full & ~1

    # -- state management -------------------------------------------------

    def snapshot(self) -> Tuple[List[Tuple[int, int]], int]:
        """Capture (flip-flop state, active mask) for later restore."""
        return (list(self.state), self.active)

    def restore(self, snap: Tuple[List[Tuple[int, int]], int]) -> None:
        """Restore a snapshot taken with :meth:`snapshot`."""
        state, active = snap
        self.state = list(state)
        self.active = active

    def reset_state(self) -> None:
        """Force the circuit state to all-X (does not reactivate faults)."""
        self.state = [(0, 0)] * len(self.comp.ff_indices)

    def stem_slots(self, rows: Set[int]) -> Dict[int, List[int]]:
        """The mutable stem-force slot of each net row in ``rows``.

        A slot is the ``[force0, force1, forceX]`` bit-mask list the
        engine applies wherever the row is written (PI load, flip-flop
        load or gate output); rewriting it in place changes the force
        the next :meth:`step` applies.  Every row must carry a stem
        fault of this group.  Constant rows have no slot: the engine
        rewrites them every cycle.
        """
        consts = {*self.comp.const0_indices, *self.comp.const1_indices}
        missing = {r for r in rows if r not in self._stem_force or r in consts}
        if missing:
            raise FaultModelError(f"no force slot for nets {sorted(missing)}")
        return {row: self._stem_force[row] for row in rows}

    def faults_of_mask(self, mask: int) -> List[Fault]:
        """Map a bit mask back to its faults."""
        faults = []
        while mask:
            low = mask & -mask
            mask ^= low
            faults.append(self.bit_fault[low.bit_length() - 1])
        return faults

    # -- stepping ----------------------------------------------------------

    def step(self, pattern: Sequence[Value]) -> int:
        """Apply one pattern; return newly detected fault bits.

        Newly detected bits are removed from :attr:`active`.
        """
        comp = self.comp
        full = self.full
        ones = self.ones
        zeros = self.zeros

        if len(pattern) != len(comp.pi_indices):
            raise SimulationError(
                f"pattern has {len(pattern)} values, circuit has "
                f"{len(comp.pi_indices)} primary inputs"
            )
        for slot, (idx, value) in enumerate(zip(comp.pi_indices, pattern)):
            if value == V1:
                o, z = full, 0
            elif value == V0:
                o, z = 0, full
            elif value == VX:
                o, z = 0, 0
            else:
                raise SimulationError(f"bad ternary value {value!r}")
            sf = self._pi_sf[slot]
            if sf is not None:
                f0, f1, fx = sf
                o = ((o | f1) & ~f0) & ~fx
                z = ((z | f0) & ~f1) & ~fx
            ones[idx], zeros[idx] = o, z
        for slot, idx in enumerate(comp.ff_indices):
            o, z = self.state[slot]
            sf = self._ff_sf[slot]
            if sf is not None:
                f0, f1, fx = sf
                o = ((o | f1) & ~f0) & ~fx
                z = ((z | f0) & ~f1) & ~fx
            ones[idx], zeros[idx] = o, z
        for idx in comp.const0_indices:
            ones[idx], zeros[idx] = 0, full
        for idx in comp.const1_indices:
            ones[idx], zeros[idx] = full, 0

        for opcode, out, fanins, pf, sf in self._ops:
            if pf is None:
                if opcode == OP_AND or opcode == OP_NAND:
                    o, z = full, 0
                    for f in fanins:
                        o &= ones[f]
                        z |= zeros[f]
                    if opcode == OP_NAND:
                        o, z = z, o
                elif opcode == OP_OR or opcode == OP_NOR:
                    o, z = 0, full
                    for f in fanins:
                        o |= ones[f]
                        z &= zeros[f]
                    if opcode == OP_NOR:
                        o, z = z, o
                elif opcode == OP_NOT:
                    f = fanins[0]
                    o, z = zeros[f], ones[f]
                elif opcode == OP_BUF:
                    f = fanins[0]
                    o, z = ones[f], zeros[f]
                else:  # XOR / XNOR
                    f = fanins[0]
                    o, z = ones[f], zeros[f]
                    for f in fanins[1:]:
                        fo, fz = ones[f], zeros[f]
                        o, z = (o & fz) | (z & fo), (o & fo) | (z & fz)
                    if opcode == OP_XNOR:
                        o, z = z, o
            else:
                o, z = _eval_with_pin_forces(opcode, fanins, pf, ones, zeros, full)
            if sf is not None:
                f0, f1, fx = sf
                o = ((o | f1) & ~f0) & ~fx
                z = ((z | f0) & ~f1) & ~fx
            ones[out], zeros[out] = o, z

        detected = 0
        if self.active:
            for idx in comp.po_indices:
                o, z = ones[idx], zeros[idx]
                if o & 1:
                    detected |= z & self.active
                elif z & 1:
                    detected |= o & self.active
            self.active &= ~detected

        new_state = []
        for slot, idx in enumerate(comp.ff_next_indices):
            o, z = ones[idx], zeros[idx]
            force = self._ff_force.get(slot)
            if force is not None:
                f0, f1, fx = force
                o = ((o | f1) & ~f0) & ~fx
                z = ((z | f0) & ~f1) & ~fx
            new_state.append((o, z))
        self.state = new_state
        return detected

    def po_trace(
        self, stimulus: Sequence[Sequence[Value]]
    ) -> Iterator[List[Tuple[int, int]]]:
        """Step every pattern; per cycle, each primary output's
        ``(ones, zeros)`` words (no early stop)."""
        po_indices = self.comp.po_indices
        for pattern in stimulus:
            self.step(pattern)
            yield [(self.ones[idx], self.zeros[idx]) for idx in po_indices]

    def discrepancy_lines(self) -> Dict[Fault, List[str]]:
        """Nets where each fault's machine disagrees (binary vs binary
        complement) with the good machine in the *last stepped cycle*.

        Scans all faults of the group, detected or not — observation
        point analysis needs discrepancies regardless of PO detection.
        """
        comp = self.comp
        names = comp.names
        out: Dict[Fault, List[str]] = {}
        all_bits = self.full & ~1
        for idx in range(comp.n_nets):
            o, z = self.ones[idx], self.zeros[idx]
            if o & 1:
                diff = z & all_bits
            elif z & 1:
                diff = o & all_bits
            else:
                continue
            while diff:
                low = diff & -diff
                diff ^= low
                out.setdefault(self.bit_fault[low.bit_length() - 1], []).append(names[idx])
        return out


@dataclass
class FaultSimResult:
    """Outcome of one fault simulation run.

    Attributes
    ----------
    detection_time:
        First detection time for every detected fault.
    undetected:
        Faults never detected by the stimulus.
    n_faults:
        Total faults simulated.
    lines:
        Only when line recording was requested: for each fault, the set
        of net names where its effect appeared as a binary discrepancy
        at any time unit (used for observation-point insertion).
    """

    detection_time: Dict[Fault, int]
    undetected: Tuple[Fault, ...]
    n_faults: int
    lines: Dict[Fault, Set[str]] = field(default_factory=dict)

    @property
    def detected(self) -> Tuple[Fault, ...]:
        """Detected faults, sorted by (detection time, fault)."""
        return tuple(
            sorted(self.detection_time, key=lambda f: (self.detection_time[f], f))
        )

    @property
    def coverage(self) -> float:
        """Fraction of simulated faults detected."""
        if not self.n_faults:
            return 1.0
        return len(self.detection_time) / self.n_faults


class FaultSimulator:
    """Sequential stuck-at fault simulator for one circuit.

    Reusable and stateless between :meth:`run` calls; every run starts
    from the all-X circuit state (the paper's no-reset assumption).

    ``runtime`` (a :class:`~repro.runtime.context.RuntimeContext`)
    plugs the simulator into the artifact cache and the runtime stats;
    results never depend on it.  :meth:`run`, :meth:`detects_any` and
    their batch forms share one cache protocol (:meth:`_cached`).
    """

    def __init__(
        self,
        circuit: Circuit,
        compiled: CompiledCircuit | None = None,
        runtime=None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.comp = compiled or compile_circuit(circuit)
        self.runtime = runtime
        self.backend = resolve_backend(backend, runtime)
        self._flop_pos = {name: i for i, name in enumerate(circuit.flops)}
        self._circuit_fp_memo: Optional[str] = None
        self._vec_engine = None

    def _vector_engine(self):
        if self._vec_engine is None:
            from repro.sim.vector.engine import VectorEngine

            self._vec_engine = VectorEngine(self.comp, self._flop_pos)
        return self._vec_engine

    def _validated(self, faults: Sequence[Fault]) -> List[Fault]:
        """``faults`` as a list, each checked against the circuit."""
        faults = list(faults)
        for fault in faults:
            validate_fault(self.circuit, fault)
        return faults

    # -- runtime plumbing ---------------------------------------------------

    def _circuit_fp(self) -> str:
        """Fingerprint of the canonical bench text, memoized."""
        if self._circuit_fp_memo is None:
            from repro.runtime.keys import fingerprint

            self._circuit_fp_memo = fingerprint(write_bench(self.circuit))
        return self._circuit_fp_memo

    def _artifact_key(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        config: Dict[str, object],
    ) -> str:
        from repro.runtime.keys import (
            faults_fingerprint,
            simulation_key,
            stimulus_fingerprint,
        )

        return simulation_key(
            self._circuit_fp(),
            stimulus_fingerprint(stimulus),
            faults_fingerprint(faults),
            {**config, "sim": "FaultSimulator"},
        )

    def _cached(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        config: Dict[str, object],
        simulate: Callable[[List[Sequence[Sequence[Value]]]], list],
    ) -> list:
        """One answer per stimulus, from the artifact cache or ``simulate``.

        ``config`` completes the artifact key; its ``kind`` (``"run"``
        or ``"screen"``) picks the payload codec, the hit and simulation
        counters, and the ``op`` of the trace events.  Each stimulus's
        key is looked up in order: a hit is answered and counted, a miss
        counted.  All misses then go to one ``simulate`` call, which
        returns their answers in order, and each is counted and stored.
        Without a runtime nothing is cached or counted.
        """
        ctx = self.runtime
        if ctx is None:
            return simulate(list(stimuli))
        kind = config["kind"]
        decode, encode, hit_counter, sim_counter = _CACHE_OPS[kind]
        answers: list = [None] * len(stimuli)
        keys: List[Optional[str]] = [None] * len(stimuli)
        pending: List[int] = []
        for i, stimulus in enumerate(stimuli):
            if ctx.cache is not None:
                keys[i] = key = self._artifact_key(stimulus, faults, config)
                payload = ctx.cache.get(key)
                if payload is not None:
                    answers[i] = decode(payload, faults, config)
                if answers[i] is not None:
                    _bump(ctx.stats, hit_counter)
                    trace_event(ctx, "cache_hit", op=kind, key=key)
                    continue
                ctx.stats.cache_misses += 1
                trace_event(ctx, "cache_miss", op=kind, key=key)
            pending.append(i)
        if pending:
            fresh = simulate([stimuli[i] for i in pending])
            for i, answer in zip(pending, fresh):
                answers[i] = answer
                _bump(ctx.stats, sim_counter)
                if keys[i] is not None:
                    ctx.cache.put(keys[i], encode(answer, config))
        return answers

    # -- whole-sequence runs ------------------------------------------------

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        record_lines: bool = False,
        stop_when_all_detected: bool = True,
    ) -> FaultSimResult:
        """Fault-simulate ``stimulus`` against ``faults``.

        Parameters
        ----------
        stimulus:
            Per time unit, ternary primary-input values in port order.
        faults:
            The faults to simulate; each is validated first.
        record_lines:
            Record, per fault, every net where a binary discrepancy
            appears (slower; used for observation-point analysis).
            Disables early stopping, because discrepancies after first
            detection still matter.
        stop_when_all_detected:
            Stop a group's simulation once all its faults are detected.
            (Does not influence the result — only how far simulation
            continues after the last detection — so it is not part of
            the cache key.)
        """
        faults = self._validated(faults)
        [result] = self._cached(
            [stimulus],
            faults,
            {"kind": "run", "record_lines": record_lines},
            lambda pending: [
                self._simulate(
                    pending[0], faults, record_lines, stop_when_all_detected
                )
            ],
        )
        return result

    def _simulate(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        record_lines: bool,
        stop_when_all_detected: bool,
    ) -> FaultSimResult:
        """The actual simulation, in this process."""
        early_stop = stop_when_all_detected and not record_lines
        if self.backend == "vector":
            detection, lines = self._vector_engine().run(
                stimulus, faults, record_lines, early_stop
            )
            return _result(faults, detection, lines)
        detection: Dict[Fault, int] = {}
        lines: Dict[Fault, Set[str]] = {f: set() for f in faults} if record_lines else {}
        for start in range(0, len(faults), GROUP_FAULTS):
            group = faults[start : start + GROUP_FAULTS]
            sim = _GroupSim(self.comp, self._flop_pos, group)
            for u, pattern in enumerate(stimulus):
                newly = sim.step(pattern)
                while newly:
                    low = newly & -newly
                    newly ^= low
                    detection[sim.bit_fault[low.bit_length() - 1]] = u
                if record_lines:
                    for fault, nets in sim.discrepancy_lines().items():
                        lines[fault].update(nets)
                if early_stop and not sim.active:
                    break
        return _result(faults, detection, lines)

    # -- output responses ---------------------------------------------------

    def output_responses(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
    ) -> Tuple[List[Tuple[Value, ...]], Dict[Fault, Dict[Tuple[int, int], Value]]]:
        """Primary-output responses of the good and every faulty machine.

        Returns ``(good_rows, diffs)``.  ``good_rows[u]`` is the good
        machine's ternary PO row at time ``u``.  ``diffs[fault]`` maps
        every ``(u, po)`` where ``fault``'s machine differs from the
        good one — binary complement, or binary versus X either way —
        to the faulty value; it is keyed in the order of ``faults``.
        Each fault is simulated over the whole stimulus, with no fault
        dropping and no cache: response compaction (MISR grading) and
        diagnosis dictionaries read every position, X responses
        included.
        """
        faults = self._validated(faults)
        if self.backend == "vector":
            passes = [(faults, self._vector_engine().po_trace(stimulus, faults))]
        else:
            groups = [
                faults[start : start + GROUP_FAULTS]
                for start in range(0, len(faults), GROUP_FAULTS)
            ] or [[]]
            passes = [
                (group, _GroupSim(self.comp, self._flop_pos, group).po_trace(stimulus))
                for group in groups
            ]
        diffs: Dict[Fault, Dict[Tuple[int, int], Value]] = {f: {} for f in faults}
        good_rows: List[Tuple[Value, ...]] = []
        for lane_fault, trace in passes:
            good_rows = [
                _decode_po_words(u, words, lane_fault, diffs)
                for u, words in enumerate(trace)
            ]
        return good_rows, diffs

    # -- screening ----------------------------------------------------------

    def detects_any(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
    ) -> bool:
        """True iff ``stimulus`` detects at least one of ``faults``.

        Implements the paper's sample-first simulation shortcut
        (Section 4.2): a candidate weighted sequence is screened against
        a small fault sample and fully simulated only if the screen
        fires.  Stops at the first detection.
        """
        faults = self._validated(faults)
        [verdict] = self._cached(
            [stimulus],
            faults,
            {"kind": "screen"},
            lambda pending: [self._screen(pending[0], faults)],
        )
        return verdict

    def _screen(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
    ) -> bool:
        if self.backend == "vector":
            return self._vector_engine().screen(stimulus, faults)
        for start in range(0, len(faults), GROUP_FAULTS):
            group = faults[start : start + GROUP_FAULTS]
            sim = _GroupSim(self.comp, self._flop_pos, group)
            for pattern in stimulus:
                if sim.step(pattern):
                    return True
        return False

    def detects_any_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
    ) -> List[bool]:
        """Screen several stimuli against one fault sample.

        Verdict ``i`` is exactly ``detects_any(stimuli[i], faults)``;
        the vector backend screens all uncached stimuli in one
        multi-block kernel pass (cached ones are answered from the
        cache).
        """
        stimuli = list(stimuli)
        if len(stimuli) <= 1 or self.backend != "vector":
            return [self.detects_any(s, faults) for s in stimuli]
        faults = self._validated(faults)
        return self._cached(
            stimuli,
            faults,
            {"kind": "screen"},
            lambda pending: self._vector_engine().screen_batch(pending, faults),
        )

    def run_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        record_lines: bool = False,
        stop_when_all_detected: bool = True,
    ) -> List[FaultSimResult]:
        """Whole-sequence runs over several stimuli against one fault list.

        Result ``i`` is exactly ``run(stimuli[i], faults, ...)``.  The
        vector backend simulates the uncached stimuli together, packing
        each into its own word-aligned lane block of a single kernel;
        other configurations fall back to a plain loop.
        """
        stimuli = list(stimuli)
        if self.backend != "vector" or record_lines or len(stimuli) <= 1:
            return [
                self.run(s, faults, record_lines, stop_when_all_detected)
                for s in stimuli
            ]
        faults = self._validated(faults)
        return self._cached(
            stimuli,
            faults,
            {"kind": "run", "record_lines": False},
            lambda pending: [
                _result(faults, detection)
                for detection in self._vector_engine().run_batch(
                    pending, faults, early_stop=stop_when_all_detected
                )
            ],
        )


class IncrementalFaultSimulator:
    """Pattern-at-a-time fault simulation.

    The sequence being built or checked is never re-simulated from its
    start:

    * the test generator scores a cycle's candidate patterns and
      commits the best with :meth:`step_best` — on the vector backend
      one multi-block kernel step, on the oracle one :meth:`peek` per
      candidate plus a :meth:`step` — and drops its detected faults
      with :meth:`regroup` once they are a quarter of the machines it
      carries (:attr:`n_carried`);
    * the oracle's static compaction keeps a :meth:`snapshot` before
      every cycle of the accepted sequence and resumes each check from
      the one at the removed block's start with :meth:`restore`.  The
      vector backend's compaction decides its checks at state
      re-convergence instead
      (:class:`~repro.sim.vector.engine.VectorCompaction`), so
      snapshots exist on the oracle only.

    A step that detects repacks the survivors once they fit in half
    the words or groups, on both backends.  A snapshot carries the
    group list it was taken in, so a restore across a repack is exact.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        compiled: CompiledCircuit | None = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.comp = compiled or compile_circuit(circuit)
        self.backend = resolve_backend(backend)
        flop_pos = {name: i for i, name in enumerate(circuit.flops)}
        faults = list(faults)
        for fault in faults:
            validate_fault(circuit, fault)
        self._vec = None
        self._groups: List[_GroupSim] = []
        if self.backend == "vector":
            from repro.sim.vector.engine import VectorIncremental

            self._vec = VectorIncremental(self.comp, flop_pos, faults)
        else:
            self._groups = [
                _GroupSim(
                    self.comp, flop_pos, faults[start : start + GROUP_FAULTS]
                )
                for start in range(0, len(faults), GROUP_FAULTS)
            ]
        self._n_faults = len(faults)
        self._n_detected = 0

    @property
    def n_remaining(self) -> int:
        """Faults not yet detected."""
        return self._n_faults - self._n_detected

    @property
    def n_carried(self) -> int:
        """Faults whose machines are still stepped, detected or not
        (:meth:`regroup` drops the detected ones)."""
        if self._vec is not None:
            return self._vec.n_carried
        return sum(len(group.bit_fault) for group in self._groups)

    def remaining_faults(self) -> List[Fault]:
        """The undetected faults, in group order."""
        if self._vec is not None:
            return self._vec.remaining_faults()
        out: List[Fault] = []
        for group in self._groups:
            out.extend(group.faults_of_mask(group.active))
        return out

    def step(self, pattern: Sequence[Value]) -> List[Fault]:
        """Commit one pattern; return the faults it newly detected."""
        if self._vec is not None:
            newly = self._vec.step(pattern)
            self._n_detected += len(newly)
            return newly
        newly = []
        for group in self._groups:
            bits = group.step(pattern)
            if bits:
                newly.extend(group.faults_of_mask(bits))
        self._n_detected += len(newly)
        # Repack once the survivors fit in half the groups, as the
        # vector backend re-lanes; never down to no group, which would
        # stop validating patterns.
        need = -(-self.n_remaining // GROUP_FAULTS)
        if newly and need and need <= len(self._groups) // 2:
            self.regroup()
        return newly

    def step_best(
        self, patterns: Sequence[Sequence[Value]]
    ) -> Tuple[int, List[Fault]]:
        """Commit the candidate with the most new detections.

        Ties go to the earliest of ``patterns``.  Returns the winner's
        index and the faults it newly detected.  A malformed candidate
        raises the :class:`SimulationError` its :meth:`peek` would,
        before any state changes.
        """
        if not patterns:
            raise SimulationError("step_best needs at least one candidate")
        if self._vec is not None:
            best, newly = self._vec.step_best(patterns)
            self._n_detected += len(newly)
            return best, newly
        best = 0
        best_score = self.peek(patterns[0])
        for index in range(1, len(patterns)):
            score = self.peek(patterns[index])
            if score > best_score:
                best, best_score = index, score
        return best, self.step(patterns[best])

    def peek(self, pattern: Sequence[Value]) -> int:
        """Count detections ``pattern`` would achieve, without committing."""
        if self._vec is not None:
            return self._vec.peek(pattern)
        count = 0
        for group in self._groups:
            snap = group.snapshot()
            bits = group.step(pattern)
            while bits:
                bits &= bits - 1
                count += 1
            group.restore(snap)
        return count

    def snapshot(self) -> tuple:
        """The whole simulation state, for a later :meth:`restore`
        (python backend only)."""
        self._oracle_only("snapshot")
        return (self._n_detected, [(g, g.snapshot()) for g in self._groups])

    def restore(self, snap: tuple) -> None:
        """Return to a :meth:`snapshot` (any number of times; python
        backend only)."""
        self._oracle_only("restore")
        self._n_detected, state = snap
        self._groups = [group for group, _ in state]
        for group, group_snap in state:
            group.restore(group_snap)

    def _oracle_only(self, method: str) -> None:
        if self._vec is not None:
            raise SimulationError(
                f"{method} needs the python backend; the vector backend "
                "keeps no snapshots"
            )

    def reset_state(self) -> None:
        """Reset the circuit state to all-X in every machine."""
        if self._vec is not None:
            self._vec.reset_state()
            return
        for group in self._groups:
            group.reset_state()

    def regroup(self) -> None:
        """Repack undetected faults into as few groups as possible.

        As faults are detected their machine bits go idle but their
        groups keep simulating; regrouping rebuilds dense groups while
        *preserving every remaining machine's flip-flop state*, so it is
        behaviourally invisible — only faster.  On the vector backend
        the survivors' program compiles its own layout at once, since a
        caller regroups a list that runs on.
        """
        if self._vec is not None:
            self._vec.regroup(compile_now=True)
            return
        if not self._groups:
            return
        n_ff = len(self.comp.ff_indices)
        # Good-machine state is identical in every group; take bit 0.
        good = [
            ((o & 1), (z & 1)) for o, z in self._groups[0].state
        ]
        survivors: List[Tuple[Fault, List[Tuple[int, int]]]] = []
        for group in self._groups:
            active = group.active
            while active:
                low = active & -active
                active ^= low
                bit = low.bit_length() - 1
                fault = group.bit_fault[bit]
                state = [
                    ((o >> bit) & 1, (z >> bit) & 1) for o, z in group.state
                ]
                survivors.append((fault, state))
        flop_pos = {name: i for i, name in enumerate(self.circuit.flops)}
        new_groups: List[_GroupSim] = []
        for start in range(0, len(survivors), GROUP_FAULTS):
            chunk = survivors[start : start + GROUP_FAULTS]
            sim = _GroupSim(self.comp, flop_pos, [f for f, _ in chunk])
            state: List[Tuple[int, int]] = []
            for slot in range(n_ff):
                ones_word = good[slot][0]
                zeros_word = good[slot][1]
                for offset, (_fault, fstate) in enumerate(chunk):
                    ones_word |= fstate[slot][0] << (offset + 1)
                    zeros_word |= fstate[slot][1] << (offset + 1)
                state.append((ones_word, zeros_word))
            sim.state = state
            new_groups.append(sim)
        self._groups = new_groups


def _eval_with_pin_forces(
    opcode: int,
    fanins: Tuple[int, ...],
    pf: Dict[int, List[int]],
    ones: List[int],
    zeros: List[int],
    full: int,
) -> Tuple[int, int]:
    """Evaluate a gate whose input pins carry branch-fault forces."""
    ins: List[Tuple[int, int]] = []
    for pin, f in enumerate(fanins):
        o, z = ones[f], zeros[f]
        force = pf.get(pin)
        if force is not None:
            f0, f1, fx = force
            o = ((o | f1) & ~f0) & ~fx
            z = ((z | f0) & ~f1) & ~fx
        ins.append((o, z))
    if opcode == OP_AND or opcode == OP_NAND:
        o, z = full, 0
        for fo, fz in ins:
            o &= fo
            z |= fz
        return (z, o) if opcode == OP_NAND else (o, z)
    if opcode == OP_OR or opcode == OP_NOR:
        o, z = 0, full
        for fo, fz in ins:
            o |= fo
            z &= fz
        return (z, o) if opcode == OP_NOR else (o, z)
    if opcode == OP_NOT:
        o, z = ins[0]
        return z, o
    if opcode == OP_BUF:
        return ins[0]
    # XOR / XNOR
    o, z = ins[0]
    for fo, fz in ins[1:]:
        o, z = (o & fz) | (z & fo), (o & fo) | (z & fz)
    if opcode == OP_XNOR:
        return z, o
    return o, z


def _decode_po_words(
    u: int,
    words: Sequence[Tuple[int, int]],
    lane_fault: Sequence[Fault],
    diffs: Dict[Fault, Dict[Tuple[int, int], Value]],
) -> Tuple[Value, ...]:
    """Decode one cycle's primary-output ``(ones, zeros)`` lane words.

    Lane 0 is the good machine and lane ``l`` is ``lane_fault[l - 1]``;
    lanes past the faults are padding.  Records in ``diffs`` each fault
    whose value differs from the good machine's at ``(u, po)`` and
    returns the good row.
    """
    lanes = ((1 << (len(lane_fault) + 1)) - 1) & ~1
    row = []
    for po, (o, z) in enumerate(words):
        good = V1 if o & 1 else V0 if z & 1 else VX
        row.append(good)
        for value, mask in ((V1, o), (V0, z), (VX, ~(o | z))):
            if value == good:
                continue
            mask &= lanes
            while mask:
                low = mask & -mask
                mask ^= low
                diffs[lane_fault[low.bit_length() - 2]][(u, po)] = value
    return tuple(row)


def _result(
    faults: Sequence[Fault],
    detection: Dict[Fault, int],
    lines: Optional[Dict[Fault, Set[str]]] = None,
) -> FaultSimResult:
    """The :class:`FaultSimResult` of ``detection`` over ``faults``."""
    return FaultSimResult(
        detection_time=detection,
        undetected=tuple(f for f in faults if f not in detection),
        n_faults=len(faults),
        lines=lines or {},
    )


def _result_payload(result: FaultSimResult, config: Dict[str, object]) -> dict:
    """JSON-serializable cache payload for a :class:`FaultSimResult`."""
    payload: dict = {
        "n_faults": result.n_faults,
        "detection": sorted(
            ([fault_name(f), u] for f, u in result.detection_time.items()),
        ),
    }
    if config["record_lines"]:
        payload["lines"] = {
            fault_name(f): sorted(nets) for f, nets in result.lines.items()
        }
    return payload


def _result_from_payload(
    payload: dict, faults: Sequence[Fault], config: Dict[str, object]
) -> Optional[FaultSimResult]:
    """Rebuild a result from a cache payload against the caller's fault
    objects; None when the payload does not fit (treated as a miss)."""
    by_name = {fault_name(f): f for f in faults}
    try:
        if payload["n_faults"] != len(faults):
            return None
        detection = {by_name[name]: int(u) for name, u in payload["detection"]}
        lines: Dict[Fault, Set[str]] = {}
        if config["record_lines"]:
            lines = {f: set() for f in faults}
            for name, nets in payload["lines"].items():
                lines[by_name[name]] = set(nets)
    except (KeyError, TypeError, ValueError):
        return None
    return _result(faults, detection, lines)


def _verdict_payload(verdict: bool, config: Dict[str, object]) -> dict:
    """Cache payload for a screening verdict."""
    return {"detects": verdict}


def _verdict_from_payload(
    payload: dict, faults: Sequence[Fault], config: Dict[str, object]
) -> Optional[bool]:
    """The cached screening verdict; None when the payload has none."""
    verdict = payload.get("detects") if isinstance(payload, dict) else None
    return verdict if isinstance(verdict, bool) else None


#: Per artifact ``kind``: the payload decoder and encoder, then the
#: :class:`~repro.runtime.metrics.RuntimeStats` counters of a cache hit
#: and of a simulation run.
_CACHE_OPS = {
    "run": (
        _result_from_payload, _result_payload,
        "full_sim_hits", "full_simulations",
    ),
    "screen": (
        _verdict_from_payload, _verdict_payload,
        "screen_hits", "screen_simulations",
    ),
}


def _bump(stats, counter: str) -> None:
    setattr(stats, counter, getattr(stats, counter) + 1)


def detection_times(
    circuit: Circuit,
    stimulus: Sequence[Sequence[Value]],
    faults: Sequence[Fault],
    simulator: FaultSimulator | None = None,
) -> Dict[Fault, int]:
    """First detection time of each fault of ``faults`` under ``stimulus``.

    Faults not detected are absent from the result.  This is the
    ``u_det(f)`` map the paper's weight-selection procedure is driven by.
    """
    sim = simulator or FaultSimulator(circuit)
    return sim.run(stimulus, faults).detection_time
