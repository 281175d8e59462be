"""High-level driver for the vector kernel.

:class:`VectorEngine` is the front end :class:`~repro.sim.faultsim.FaultSimulator`
delegates to for ``backend="vector"``: whole-sequence runs, line
recording, primary-output traces, screening, and multi-stimulus batched
screening/runs.
:class:`VectorIncremental` backs ``IncrementalFaultSimulator``, and
:class:`VectorCompaction` decides static compaction's checks.

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
* periodic early-out: a weighted sequence repeats with its minimal
  period ``P``, so ``run``, screens and batched runs also stop a block
  once its state at a multiple of ``P`` repeats an earlier one
  (:class:`_Checkpoint`).  The period comes from the stimulus
  (:func:`~repro.sim.stimulus.stimulus_period`): a
  :class:`~repro.sim.stimulus.PeriodicStimulus`, which is how every
  weighted sequence arrives, carries it, and only a plain list of rows
  is searched for one.  The stop is exact.  A synchronous machine's
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
from repro.sim.stimulus import stimulus_period
from repro.sim.values import V0, V1, VX, Value
from repro.sim.vector import kernels
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
    compile_now: bool = False,
) -> Tuple[IntKernel, Tuple[Fault, ...]]:
    """A single-block kernel over ``kern``'s active lanes only, in lane
    order, carrying every surviving machine's flip-flop state.  With
    ``compile_now`` its program compiles its own layout before its first
    step instead of after :data:`~repro.sim.vector.kernels.TIER_UP_STEPS`."""
    act = kern.active
    lanes: List[int] = []
    while act:
        low = act & -act
        act ^= low
        lanes.append(low.bit_length() - 1)
    new_faults = tuple(lane_fault[lane - 1] for lane in lanes)
    program = build_program(comp, flop_pos, new_faults)
    if compile_now:
        kernels._tier_up(program)
    new_kern = IntKernel(program)
    new_kern.load_state([kern.extract_lane(lane) for lane in [0] + lanes])
    return new_kern, new_faults


def _agree(now: Sequence[int], then: Sequence[int], keep: int) -> bool:
    """Do the words agree on every lane of ``keep``?  Stops at the
    first word that differs."""
    for a, b in zip(now, then):
        if (a ^ b) & keep:
            return False
    return True


def _differ(kern: IntKernel, state: Tuple[List[int], List[int]]) -> int:
    """The lanes whose flip-flop words differ between ``kern`` and
    ``state``."""
    diff = 0
    for a, b in zip(kern.S_O, state[0]):
        diff |= a ^ b
    for a, b in zip(kern.S_Z, state[1]):
        diff |= a ^ b
    return diff


def _tile(word: int, shift: int, n: int) -> int:
    """``word`` copied into each of ``n`` blocks ``shift`` bits apart,
    by shifts and ORs (doubling the copies while they fit)."""
    out = word
    have = 1
    while 2 * have <= n:
        out |= out << (have * shift)
        have *= 2
    while have < n:
        out |= word << (have * shift)
        have += 1
    return out


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
        period = stimulus_period(stimulus)
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
        checks = [
            _Checkpoint(kern, stimulus_period(s), b)
            for b, s in enumerate(chunk)
        ]
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
        checks = [
            _Checkpoint(kern, stimulus_period(s), b)
            for b, s in enumerate(chunk)
        ]
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

    One single-block kernel holds the committed state.  A detecting step
    re-lanes it (:func:`_relane`) once its survivors fit in half its
    words, the :meth:`VectorEngine._maybe_compact` rule; that program
    starts on the covering code, because a burst of detections soon
    replaces it.  ``regroup(compile_now=True)``, which
    :meth:`~repro.sim.faultsim.IncrementalFaultSimulator.regroup` asks
    for, compiles the survivors' own layout at once: the walk regroups
    only when a quarter of the lanes are idle, and the survivors then
    run for the rest of the walk or at least 128 steps.  :meth:`step_best`
    scores a cycle's candidates as the blocks of one multi-block kernel
    step, kept across cycles until the lanes change.  Survivor programs
    are not memoized: no survivor list of a walk was seen to repeat
    (g208, g641, g1423), so a memo only held dead programs.
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
        state (each flip-flop word and the active mask copied into every
        block by :func:`_tile`) and steps ``patterns[b]``; blocks never
        interact, so each scores exactly what a peek would.  The
        winner's block is shifted back into the committed kernel.  Every
        pattern is validated first, so a bad one raises before any state
        changes.
        """
        if not self._lane_fault:
            return 0, []
        pats = [_check_pattern(p, self._n_pi) for p in patterns]
        kern = self._kern
        if len(pats) == 1:
            return 0, self._commit(kern.step(pats))
        scorer = self._scorer
        n = len(pats)
        if (
            scorer is None
            or scorer.program is not kern.program
            or scorer.n_blocks != n
        ):
            self._scorer = None  # free the stale one first
            scorer = self._scorer = IntKernel(kern.program, n)
        bb = scorer.block_bits
        scorer.S_O = [_tile(w, bb, n) for w in kern.S_O]
        scorer.S_Z = [_tile(w, bb, n) for w in kern.S_Z]
        scorer.active = _tile(kern.active, bb, n)
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

    def reset_state(self) -> None:
        self._kern.reset_state()

    def regroup(self, compile_now: bool = False) -> None:
        """Repack survivors densely, preserving every machine's state;
        ``compile_now`` compiles their own layout before the next step."""
        # The scorer is stale once the lanes move.  Freeing it before the
        # compile took 11 MB off g1423's peak RSS during generation.
        self._scorer = None
        self._kern, self._lane_fault = _relane(
            self._kern, self._lane_fault, self.comp, self.flop_pos,
            compile_now,
        )

    @property
    def n_carried(self) -> int:
        """Faults the kernel carries, detected or not."""
        return len(self._lane_fault)


BASE_BUDGET = 1 << 25
"""Lane × flip-flop × cycle units of base state :class:`VectorCompaction`
keeps (each unit one lane's bit in a flip-flop's pair of words).  The
base run doubles its stride until the states it keeps fit: every
benchmark circuit keeps every cycle, g1423 (1,616 lanes × 74 flip-flops
× 1,186 cycles at L_G = 2000) every eighth."""


class VectorCompaction:
    """Vector omission checks, decided at state re-convergence.

    One kernel over every target lane runs the whole compaction.  It
    never drops or re-lanes a lane, and every step reports every lane's
    detections.  :meth:`truncate` steps the accepted sequence (the
    *base*) until its detections cover every target, keeping the
    flip-flop words before each cycle and each cycle's detection mask;
    ``after[c]`` is the OR of the masks at ``c`` and later.

    A check that drops ``current[start:start + block]`` starts from the
    base state at ``start``; its open set ``U`` holds the targets the
    base has not detected before ``start``.  The candidate's cycle
    ``c`` and the base's *aligned* cycle ``a = c + block`` apply the
    same inputs from then on.  Before each step the candidate's words
    are compared with the base's at ``a``: once the good machine
    agrees, an agreeing lane of ``U`` repeats the base's future (a
    machine's next state, X included, depends only on its state and its
    input), so it is decided — reject when it is not in ``after[a]``,
    else it leaves ``U``.  Detections leave ``U`` too; the check
    accepts when ``U`` is empty.  An accepted check steps on until every
    lane agrees (or its tail ends) and splices its cycles into the base,
    whose rest it then shares, shifted by ``block``.

    The base keeps the state of every ``stride``-th cycle, the stride
    doubled until the kept states fit :data:`BASE_BUDGET`.  A stored-out
    cycle is re-stepped from the nearest kept state, and a second kernel
    (the cursor) steps the base's aligned cycles in lock-step with the
    candidate.
    """

    def __init__(
        self,
        comp: CompiledCircuit,
        flop_pos: Dict[str, int],
        faults: Sequence[Fault],
    ) -> None:
        program = build_program(comp, flop_pos, tuple(faults))
        self._kern = IntKernel(program)
        self._cursor = IntKernel(program)
        self._lanes = (1 << program.lanes) - 1
        self._unit = program.lanes * len(program.ff_rows)
        self._n_pi = len(comp.pi_indices)
        self._stride = 1
        self._states: List[Optional[Tuple[List[int], List[int]]]] = []
        self._dets: List[int] = []
        self._before: List[int] = []
        self._after: List[int] = []
        self.early = False
        """Whether the last check's verdict came from re-convergence:
        a rejecting agreement, or an agreement that emptied ``U``."""

    def truncate(self, patterns: Sequence[Sequence[Value]]) -> int:
        """Run the base over ``patterns``; return its length, the cycles
        up to the first one by which every target is detected."""
        kern = self._kern
        targets = kern.fault_lanes
        states = self._states
        covered = 0
        kept = 0
        for pattern in patterns:
            pat = _check_pattern(pattern, self._n_pi)
            if len(states) % self._stride:
                states.append(None)
            else:
                states.append((kern.S_O, kern.S_Z))
                kept += 1
                while kept > 1 and kept * self._unit > BASE_BUDGET:
                    self._stride *= 2
                    for c in range(0, len(states), self._stride // 2):
                        if c % self._stride:
                            states[c] = None
                    kept = -(-len(states) // self._stride)
            kern.active = targets
            det = kern.step([pat])
            self._dets.append(det)
            covered |= det
            if covered == targets:
                break
        if covered != targets:
            raise ValueError(
                f"sequence does not detect {_popcount(targets & ~covered)} "
                "of the target faults"
            )
        self._index()
        return len(self._dets)

    def _index(self) -> None:
        """Rebuild ``before[c]`` / ``after[c]``: the OR of the base's
        detection masks before ``c`` / at ``c`` and later."""
        dets = self._dets
        n = len(dets)
        before = [0] * (n + 1)
        after = [0] * (n + 1)
        acc = 0
        for c, det in enumerate(dets):
            before[c] = acc
            acc |= det
        before[n] = acc
        acc = 0
        for c in range(n - 1, -1, -1):
            acc |= dets[c]
            after[c] = acc
        self._before = before
        self._after = after

    def _seek(
        self,
        kern: IntKernel,
        pos: int,
        c: int,
        current: Sequence[Sequence[Value]],
    ) -> int:
        """Put ``kern``, now at base cycle ``pos`` (-1: anywhere), at base
        cycle ``c``: from ``pos`` or from the nearest kept state, whichever
        is later.  Returns ``c``."""
        states = self._states
        if pos > c:
            pos = -1
        k = c
        while k > pos and states[k] is None:
            k -= 1
        if k > pos:
            kern.S_O, kern.S_Z = states[k]  # type: ignore[misc]
            pos = k
        kern.active = 0
        for u in range(pos, c):
            kern.step([current[u]])
        return c

    def accepts(
        self, current: Sequence[Sequence[Value]], start: int, block: int
    ) -> bool:
        """Does ``current`` without ``current[start:start + block]``
        still detect every target?  ``current`` is the base's sequence;
        when the answer is yes, the base becomes the candidate's."""
        kern = self._kern
        targets = kern.fault_lanes
        lanes = self._lanes
        after = self._after
        states = self._states
        stride = self._stride
        end = len(current) - block
        open_ = targets & ~self._before[start]
        self._seek(kern, -1, start, current)
        cursor = -1
        trial_states: List[Optional[Tuple[List[int], List[int]]]] = []
        trial_dets: List[int] = []
        self.early = False
        c = start
        while c < end:
            a = c + block
            base = states[a]
            if base is None:
                cursor = self._seek(self._cursor, cursor, a, current)
                base = (self._cursor.S_O, self._cursor.S_Z)
            diff = _differ(kern, base)
            if not diff & 1:
                if open_:
                    agree = open_ & ~diff
                    if agree & ~after[a]:
                        self.early = True
                        return False
                    open_ &= diff
                    self.early = not open_
                if not open_ and not diff & lanes:
                    self._splice(
                        start, a, trial_states, trial_dets,
                        (kern.S_O, kern.S_Z),
                    )
                    return True
            trial_states.append(
                None if (c - start) % stride else (kern.S_O, kern.S_Z)
            )
            kern.active = targets
            det = kern.step([current[a]])
            trial_dets.append(det)
            open_ &= ~det
            c += 1
        if open_:
            return False
        self._splice(start, len(current), trial_states, trial_dets, None)
        return True

    def _splice(
        self,
        start: int,
        a: int,
        trial_states: List[Optional[Tuple[List[int], List[int]]]],
        trial_dets: List[int],
        joint: Optional[Tuple[List[int], List[int]]],
    ) -> None:
        """The accepted candidate's base: the old base before ``start``,
        the candidate's cycles, then the old base from ``a`` on (whose
        state at ``a`` is ``joint``, the candidate's agreeing words)."""
        rest = self._states[a:]
        if rest and rest[0] is None:
            rest[0] = joint
        self._states = self._states[:start] + trial_states + rest
        self._dets = self._dets[:start] + trial_dets + self._dets[a:]
        self._index()
