"""High-level driver for the vector kernel.

:class:`VectorEngine` is the front end :class:`~repro.sim.faultsim.FaultSimulator`
delegates to for ``backend="vector"``: whole-sequence runs, line
recording, primary-output traces, screening, and multi-stimulus batched
screening/runs.
:class:`VectorIncremental` backs ``IncrementalFaultSimulator``.

Semantics are defined by the pure-Python oracle; everything here is
"only faster":

* patterns are validated lazily, cycle by cycle, with the oracle's
  exact :class:`~repro.errors.SimulationError` messages;
* fault order is preserved — lane ``l`` is ``faults[l - 1]``, so
  decoded detection/remaining lists come back in original fault-list
  order, just like group order in the oracle;
* event-driven early-out: a block stops consuming patterns when its
  active mask dies (whole-run) or on first detection (screening), and a
  single-stimulus run compacts surviving lanes into fewer words when
  enough faults have been detected (the vectorized analogue of
  ``IncrementalFaultSimulator.regroup`` — behaviourally invisible
  because every surviving machine's flip-flop state is preserved);
* periodic early-out: a weighted sequence repeats with the period
  ``P`` of its patterns, so ``run``, screens and batched runs also stop
  a block once its state at a multiple of ``P`` repeats an earlier one
  (:class:`_Checkpoint`).  The stop is exact.  A synchronous machine's
  next state is a function of its state and its input, and from the
  repeat on the input replays too, so the run would replay the stretch
  between the two checkpoints forever; that stretch left the active
  mask unchanged, so it detected nothing.  With line recording the
  state is that of every lane, because detected faults still record
  lines.  Every pattern a stop skips equals one already validated, so
  errors surface exactly where the oracle raises them.  ``po_trace``
  and :class:`VectorIncremental` step every pattern they are given.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault
from repro.sim.values import V0, V1, VX, Value
from repro.sim.vector.kernels import WORD_BITS, IntKernel
from repro.sim.vector.program import build_program

MAX_BLOCKS = 16
"""Stimuli batched into one kernel instance at a time."""

_PROGRAM_MEMO_SIZE = 16


def _check_pattern(pattern: Sequence[Value], n_pi: int) -> Tuple[Value, ...]:
    """Validate one pattern with the oracle's exact error messages."""
    if len(pattern) != n_pi:
        raise SimulationError(
            f"pattern has {len(pattern)} values, circuit has "
            f"{n_pi} primary inputs"
        )
    for value in pattern:
        if value != V1 and value != V0 and value != VX:
            raise SimulationError(f"bad ternary value {value!r}")
    return tuple(pattern)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _period(stimulus: Sequence[Sequence[Value]]) -> int:
    """Smallest ``p`` with ``stimulus[u] == stimulus[u + p]`` for every
    ``u + p < len(stimulus)``; the length itself when aperiodic.

    The length minus the longest proper border, from the prefix function
    over the rows (Knuth–Morris–Pratt, O(length)).  A row that is not
    iterable makes the stimulus aperiodic, so validation meets it where
    the oracle does.
    """
    try:
        rows = [tuple(p) for p in stimulus]
    except TypeError:
        return len(stimulus)
    border = [0] * len(rows)
    k = 0
    for i in range(1, len(rows)):
        row = rows[i]
        while k and row != rows[k]:
            k = border[k - 1]
        if row == rows[k]:
            k += 1
        border[i] = k
    return len(rows) - k


class _Checkpoint:
    """Periodic-repeat detector for one block of a kernel.

    :meth:`repeated` is asked before every cycle ``u``; it looks only at
    multiples of the block's stimulus ``period``.  The first one saves
    the block's state: its active mask and its flip-flop words.  Later
    ones compare against the save, which is renewed whenever the checks
    since it reach a power of two (Brent), so one saved state finds any
    repeat of the eventually periodic checkpoint sequence.  Words are
    compared on the block's active lanes and good lane only, or on
    every lane with ``all_lanes`` (line recording).  A stimulus whose
    period is its length has one checkpoint and never repeats.
    """

    __slots__ = (
        "kern", "period", "fault_mask", "good", "all_lanes",
        "active", "s_o", "s_z", "age", "span",
    )

    def __init__(
        self, kern: IntKernel, period: int, block: int = 0,
        all_lanes: bool = False,
    ) -> None:
        self.kern = kern
        self.period = period
        self.fault_mask = kern.block_fault_mask(block)
        self.good = 1 << (block * kern.block_bits)
        self.all_lanes = all_lanes
        self.active: Optional[int] = None
        self.s_o: List[int] = []
        self.s_z: List[int] = []
        self.age = 0
        self.span = 1

    def _save(self, active: int) -> None:
        self.active = active
        self.s_o = list(self.kern.S_O)
        self.s_z = list(self.kern.S_Z)
        self.age = 0

    def repeated(self, u: int) -> bool:
        """True iff the state before cycle ``u`` repeats the saved one."""
        if u % self.period:
            return False
        kern = self.kern
        active = kern.active & self.fault_mask
        if self.active is None:
            self._save(active)
            return False
        if active == self.active:
            keep = -1 if self.all_lanes else active | self.good
            if _agree(kern.S_O, self.s_o, keep) and _agree(
                kern.S_Z, self.s_z, keep
            ):
                return True
        self.age += 1
        if self.age == self.span:
            self.span *= 2
            self._save(active)
        return False


def _fits_half(kern: IntKernel) -> bool:
    """Do the surviving lanes (plus the good one) fit in half the words?"""
    need = -(-(_popcount(kern.active) + 1) // WORD_BITS)
    return need <= kern.words_per_block // 2


def _relane(
    kern: IntKernel,
    lane_fault: Tuple[Fault, ...],
    comp: CompiledCircuit,
    flop_pos: Dict[str, int],
) -> Tuple[IntKernel, Tuple[Fault, ...]]:
    """A single-block kernel over ``kern``'s active lanes only, in lane
    order, carrying every surviving machine's flip-flop state."""
    act = kern.active
    lanes: List[int] = []
    while act:
        low = act & -act
        act ^= low
        lanes.append(low.bit_length() - 1)
    new_faults = tuple(lane_fault[lane - 1] for lane in lanes)
    new_kern = IntKernel(build_program(comp, flop_pos, new_faults))
    new_kern.load_state([kern.extract_lane(lane) for lane in [0] + lanes])
    return new_kern, new_faults


def _agree(now: Sequence[int], then: Sequence[int], keep: int) -> bool:
    """Do the words agree on every lane of ``keep``?  Stops at the
    first word that differs."""
    for a, b in zip(now, then):
        if (a ^ b) & keep:
            return False
    return True


class VectorEngine:
    """Vector-backend driver for one compiled circuit."""

    def __init__(self, comp: CompiledCircuit, flop_pos: Dict[str, int]) -> None:
        self.comp = comp
        self.flop_pos = dict(flop_pos)
        self._n_pi = len(comp.pi_indices)
        self._programs: Dict[Tuple[Fault, ...], object] = {}

    def _program(self, faults: Sequence[Fault]):
        key = tuple(faults)
        prog = self._programs.get(key)
        if prog is None:
            if len(self._programs) >= _PROGRAM_MEMO_SIZE:
                self._programs.pop(next(iter(self._programs)))
            prog = build_program(self.comp, self.flop_pos, key)
            self._programs[key] = prog
        return prog

    # -- whole-sequence runs ----------------------------------------------

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        record_lines: bool = False,
        early_stop: bool = True,
    ) -> Tuple[Dict[Fault, int], Dict[Fault, Set[str]]]:
        """One stimulus against all ``faults``; returns (detection, lines)."""
        if not faults:
            return {}, {}  # the oracle simulates no group, so checks nothing
        prog = self._program(faults)
        kern = IntKernel(prog)
        lane_fault: Tuple[Fault, ...] = prog.faults
        names = self.comp.names
        detection: Dict[Fault, int] = {}
        lines: Dict[Fault, Set[str]] = (
            {f: set() for f in faults} if record_lines else {}
        )
        n_pi = self._n_pi
        period = _period(stimulus)
        check = _Checkpoint(kern, period, all_lanes=record_lines)
        for u, pattern in enumerate(stimulus):
            if check.repeated(u):
                break
            pat = _check_pattern(pattern, n_pi)
            det = kern.step([pat])
            while det:
                low = det & -det
                det ^= low
                detection[lane_fault[low.bit_length() - 2]] = u
            if record_lines:
                for row, diff in kern.discrepancies():
                    name = names[row]
                    while diff:
                        low = diff & -diff
                        diff ^= low
                        lines[lane_fault[low.bit_length() - 2]].add(name)
            if early_stop:
                if not kern.active:
                    break
                compacted, lane_fault = self._maybe_compact(kern, lane_fault)
                if compacted is not kern:
                    # Lanes moved: start over from a fresh checkpoint.
                    kern = compacted
                    check = _Checkpoint(kern, period, all_lanes=record_lines)
        return detection, lines

    def po_trace(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
    ) -> Iterator[List[Tuple[int, int]]]:
        """Per cycle, every primary output's ``(ones, zeros)`` lane words.

        One kernel pass over every fault and every cycle: no early stop
        and no compaction, so lane ``l`` stays ``faults[l - 1]``.
        """
        kern = IntKernel(self._program(faults))
        po_rows = self.comp.po_indices
        for pattern in stimulus:
            kern.step([_check_pattern(pattern, self._n_pi)])
            yield [(kern.O[idx], kern.Z[idx]) for idx in po_rows]

    def _maybe_compact(self, kern: IntKernel, lane_fault: Tuple[Fault, ...]):
        """Repack surviving lanes into fewer words once half the words
        can be dropped.  The halving threshold bounds rebuilds per run
        to ``log2(words)`` — each rebuild builds a new program, which
        starts on the covering code and compiles its own layout once it
        has run ``TIER_UP_STEPS`` steps, so rebuilding on every dropped
        word costs more than it saves."""
        if not _fits_half(kern):
            return kern, lane_fault
        return _relane(kern, lane_fault, self.comp, self.flop_pos)

    # -- batched runs / screening ------------------------------------------

    def screen(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
    ) -> bool:
        return self.screen_batch([stimulus], faults)[0]

    def screen_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
    ) -> List[bool]:
        """Per stimulus: would it detect at least one of ``faults``?"""
        out: List[bool] = []
        for start in range(0, len(stimuli), MAX_BLOCKS):
            out.extend(
                self._screen_blocks(stimuli[start : start + MAX_BLOCKS], faults)
            )
        return out

    def _screen_blocks(
        self,
        chunk: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
    ) -> List[bool]:
        n_blocks = len(chunk)
        prog = self._program(faults)
        kern = IntKernel(prog, n_blocks)
        lens = [len(s) for s in chunk]
        done = [length == 0 for length in lens]
        checks = [_Checkpoint(kern, _period(s), b) for b, s in enumerate(chunk)]
        verdicts = [False] * n_blocks
        n_pi = self._n_pi
        for b, is_done in enumerate(done):
            if is_done:
                kern.deactivate(kern.block_fault_mask(b))
        for u in range(max(lens, default=0)):
            if kern.active == 0:
                break
            patterns: List[Optional[Tuple[Value, ...]]] = []
            for b, s in enumerate(chunk):
                if done[b]:
                    patterns.append(None)
                elif u >= lens[b] or checks[b].repeated(u):
                    # Over, or repeating with nothing detected: negative.
                    done[b] = True
                    kern.deactivate(kern.block_fault_mask(b))
                    patterns.append(None)
                else:
                    patterns.append(_check_pattern(s[u], n_pi))
            if all(done):
                break
            det = kern.step(patterns)
            if det:
                for b in range(n_blocks):
                    if not done[b] and det & kern.block_fault_mask(b):
                        verdicts[b] = True
                        done[b] = True
                        kern.deactivate(kern.block_fault_mask(b))
        return verdicts

    def run_batch(
        self,
        stimuli: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        early_stop: bool = True,
    ) -> List[Dict[Fault, int]]:
        """Whole-sequence detection times, one dict per stimulus."""
        if not faults:
            return [{} for _ in stimuli]
        out: List[Dict[Fault, int]] = []
        for start in range(0, len(stimuli), MAX_BLOCKS):
            out.extend(
                self._run_blocks(
                    stimuli[start : start + MAX_BLOCKS], faults, early_stop
                )
            )
        return out

    def _run_blocks(
        self,
        chunk: Sequence[Sequence[Sequence[Value]]],
        faults: Sequence[Fault],
        early_stop: bool,
    ) -> List[Dict[Fault, int]]:
        n_blocks = len(chunk)
        prog = self._program(faults)
        kern = IntKernel(prog, n_blocks)
        lane_fault = prog.faults
        lens = [len(s) for s in chunk]
        done = [length == 0 for length in lens]
        checks = [_Checkpoint(kern, _period(s), b) for b, s in enumerate(chunk)]
        detections: List[Dict[Fault, int]] = [dict() for _ in range(n_blocks)]
        n_pi = self._n_pi
        bb = kern.block_bits
        for b, is_done in enumerate(done):
            if is_done:
                kern.deactivate(kern.block_fault_mask(b))
        for u in range(max(lens, default=0)):
            patterns: List[Optional[Tuple[Value, ...]]] = []
            for b, s in enumerate(chunk):
                if done[b]:
                    patterns.append(None)
                elif u >= lens[b] or checks[b].repeated(u):
                    # The block's stimulus is over, or it repeats and can
                    # detect nothing more: silence its lanes so later
                    # cycles (driven by other blocks) cannot record
                    # detections past its length.
                    done[b] = True
                    kern.deactivate(kern.block_fault_mask(b))
                    patterns.append(None)
                else:
                    patterns.append(_check_pattern(s[u], n_pi))
            if all(done):
                break
            det = kern.step(patterns)
            while det:
                low = det & -det
                det ^= low
                bit = low.bit_length() - 1
                b, lane = divmod(bit, bb)
                detections[b][lane_fault[lane - 1]] = u
            if early_stop:
                for b in range(n_blocks):
                    if not done[b] and not (
                        kern.active & kern.block_fault_mask(b)
                    ):
                        done[b] = True
        return detections


class VectorIncremental:
    """Vector backend for :class:`~repro.sim.faultsim.IncrementalFaultSimulator`.

    One single-block kernel holds the committed state.  A step re-lanes
    it (:func:`_relane`) once its survivors fit in half its words, the
    :meth:`VectorEngine._maybe_compact` rule, so every snapshot is taken
    in a compact layout.  :meth:`step_best` scores a cycle's candidates
    as the blocks of one multi-block kernel step, kept across cycles
    until the lanes change.  Survivor programs are not memoized: no
    survivor list of a walk or a compaction was seen to repeat (g208,
    g641, g1423), so a memo only held dead programs.
    """

    def __init__(
        self,
        comp: CompiledCircuit,
        flop_pos: Dict[str, int],
        faults: Sequence[Fault],
    ) -> None:
        self.comp = comp
        self.flop_pos = dict(flop_pos)
        self._lane_fault: Tuple[Fault, ...] = tuple(faults)
        self._kern = IntKernel(build_program(comp, flop_pos, self._lane_fault))
        self._scorer: Optional[IntKernel] = None
        self._seed = 1
        self._n_pi = len(comp.pi_indices)

    def remaining_faults(self) -> List[Fault]:
        act = self._kern.active
        return [
            fault
            for lane, fault in enumerate(self._lane_fault, start=1)
            if (act >> lane) & 1
        ]

    def _commit(self, det: int) -> List[Fault]:
        """Decode a committed step's detections; re-lane if it pays.

        A kernel with no survivor is kept: the oracle still validates
        patterns while it has a group, detected or not.
        """
        newly: List[Fault] = []
        while det:
            low = det & -det
            det ^= low
            newly.append(self._lane_fault[low.bit_length() - 2])
        if newly and self._kern.active and _fits_half(self._kern):
            self.regroup()
        return newly

    def step(self, pattern: Sequence[Value]) -> List[Fault]:
        if not self._lane_fault:
            return []  # the oracle has no group left to step
        pat = _check_pattern(pattern, self._n_pi)
        return self._commit(self._kern.step([pat]))

    def step_best(
        self, patterns: Sequence[Sequence[Value]]
    ) -> Tuple[int, List[Fault]]:
        """Commit the earliest of ``patterns`` with the most new
        detections; return its index and those detections.

        Block ``b`` of the scoring kernel starts from the committed
        state (each flip-flop word and the active mask times
        ``sum(2 ** (b * block_bits))``) and steps ``patterns[b]``;
        blocks never interact, so each scores exactly what a peek
        would.  The winner's block is shifted back into the committed
        kernel.  Every pattern is validated first, so a bad one raises
        before any state changes.
        """
        if not self._lane_fault:
            return 0, []
        pats = [_check_pattern(p, self._n_pi) for p in patterns]
        kern = self._kern
        if len(pats) == 1:
            return 0, self._commit(kern.step(pats))
        scorer = self._scorer
        if (
            scorer is None
            or scorer.program is not kern.program
            or scorer.n_blocks != len(pats)
        ):
            self._scorer = None  # free the stale one first
            scorer = self._scorer = IntKernel(kern.program, len(pats))
            # (2**(n*bb) - 1) / (2**bb - 1) == sum(2**(b*bb) for b < n)
            self._seed = scorer.full // kern.full
        bb = scorer.block_bits
        seed = self._seed
        scorer.S_O = [w * seed for w in kern.S_O]
        scorer.S_Z = [w * seed for w in kern.S_Z]
        scorer.active = kern.active * seed
        det = scorer.step(pats)
        block = (1 << bb) - 1
        best = 0
        best_score = -1
        for b in range(len(pats)):
            score = _popcount((det >> (b * bb)) & block)
            if score > best_score:
                best, best_score = b, score
        shift = best * bb
        kern.S_O = [(w >> shift) & block for w in scorer.S_O]
        kern.S_Z = [(w >> shift) & block for w in scorer.S_Z]
        kern.active = (scorer.active >> shift) & block
        return best, self._commit((det >> shift) & block)

    def peek(self, pattern: Sequence[Value]) -> int:
        if not self._lane_fault:
            return 0
        pat = _check_pattern(pattern, self._n_pi)
        snap = self._kern.snapshot()
        det = self._kern.step([pat])
        self._kern.restore(snap)
        return _popcount(det)

    def snapshot(self):
        """The kernel, its lane→fault tuple and its state."""
        return (self._kern, self._lane_fault, self._kern.snapshot())

    def restore(self, snap) -> None:
        """Reinstate :meth:`snapshot` output, in the layout it was taken."""
        kern, lane_fault, state = snap
        kern.restore(state)
        self._kern = kern
        self._lane_fault = lane_fault

    def reset_state(self) -> None:
        self._kern.reset_state()

    def regroup(self) -> None:
        """Repack survivors densely, preserving every machine's state."""
        self._kern, self._lane_fault = _relane(
            self._kern, self._lane_fault, self.comp, self.flop_pos
        )
