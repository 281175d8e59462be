"""The word-level kernel of the vector backend.

:class:`IntKernel` executes a :class:`~repro.sim.vector.program.VectorProgram`
over a lane space of ``n_blocks`` word-aligned *blocks*, one per
simultaneous stimulus.  Lane 0 of each block is that block's good
machine; lane ``l`` is ``program.faults[l - 1]``.  Blocks never interact
(bitwise ops are lane-local), so a multi-block run is exactly
``n_blocks`` independent single-stimulus runs.

Step code is the circuit's gates in the oracle's own topological order,
generated as one straight-line function, with PI/flip-flop load forces
written at its top and branch faults applied as ephemeral pin forces
inside the gate fold, exactly like ``_GroupSim._eval_with_pin_forces``.
The generated text depends only on a force layout, and it reads its
force masks from a per-kernel list filled by site (:class:`StepCode`),
so one compiled function serves every program whose layout it covers:

* a program starts on its circuit's *covering* code, generated from
  the layout of the collapsed fault list
  (:func:`~repro.sim.vector.program.covering`) and compiled at most
  once per compiled circuit.  Its own lanes' masks go at its own sites
  and zero masks everywhere else, which is exact because a zero force
  mask is the identity.  Screens, Ω runs, reverse order and re-laned
  survivors are all subsets of the collapsed list, and most of them
  stop within a few dozen steps, so they compile nothing;
* covering code costs more per step, so a program that has run
  :data:`TIER_UP_STEPS` steps compiles its own layout, and every kernel
  on it switches code and masks before its next step, keeping its
  state words;
* a program with a site or polarity outside the covering layout (say,
  a branch fault the collapsed list represents by a stem) compiles its
  own layout at once.

Own-layout functions are compiled through :func:`_step_function`, which
keeps the last :data:`STEP_MEMO_SIZE` of them per process, keyed by
the source text.

Detection and state capture replicate the oracle bit for bit:

* forces apply as ``o = (o | f1) & ~f0``, ``z = (z | f0) & ~f1``; the
  generated code writes only the polarities a site carries (``o | f1``,
  ``z & ~f1`` for stuck-at-1 lanes alone), which is the same value
  because the absent mask is zero;
* detection happens *before* state capture, only while ``active`` is
  non-zero, and uses the conservative binary-good/binary-complement
  criterion per primary output;
* padding lanes (and lanes past the fault count) carry an extra copy of
  the good machine — they are force-free and masked out of detection
  and discrepancy reads, so they can never influence a result.

Between steps, :attr:`IntKernel.active` and the flip-flop words
:attr:`IntKernel.S_O` / :attr:`IntKernel.S_Z` are the whole state of
every lane: the next cycle is a function of them and the next pattern
alone.  That is what makes the engine's periodic stop exact — it
compares these words at multiples of the stimulus period and stops a
block whose state repeats (see :mod:`repro.sim.vector.engine`).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.compile import gate_source
from repro.sim.values import V0, V1
from repro.sim.vector.program import Site, VectorProgram, covering, covers

WORD_BITS = 64
"""Lanes per machine word.  Lane 0 of each block is the good machine;
blocks are padded to a whole number of words."""

STEP_MEMO_SIZE = 8
"""Own-layout step functions kept per process (least recently used
evicted).  Since short-lived fault lists run their circuit's covering
code, only programs that tier up, and lists the covering layout does
not cover, compile here; a few entries catch their repeats.  A larger
memo kept more compiled code resident for few extra reuses (64
entries: +12% peak RSS on a g208 flow, no faster)."""

TIER_UP_STEPS = 128
"""Kernel steps a covered program runs on its circuit's covering code
before it compiles its own layout.  Covering code costs more per step
(it evaluates a zero-mask force at every covering site), an own-layout
compile a fixed amount.  They break even after 89-137 steps for 16-
and 60-fault samples of the g208, g641 and g1423 collapsed lists
(EXPERIMENTS E22)."""

Slot = Tuple[Tuple[Site, int], bool]
"""One mask the step code reads: ``((site, stuck), negate)``."""


class StepCode:
    """A compiled step function and where its masks come from.

    ``fn(O, Z, M)`` reads mask ``M[i]`` for ``slots[i]``.  ``zeros`` is
    the mask list of a program with no force at any slot (``0``, or
    ``~0`` where negated), and ``where`` maps each site to its slots'
    ``(i, stuck, negate)``, so a kernel fills in only its program's own
    sites.
    """

    __slots__ = ("fn", "zeros", "where")

    def __init__(self, fn: Callable, slots: Tuple[Slot, ...]) -> None:
        self.fn = fn
        self.zeros = [-1 if negate else 0 for _, negate in slots]
        where: Dict[Site, List[Tuple[int, int, bool]]] = {}
        for i, ((site, stuck), negate) in enumerate(slots):
            where.setdefault(site, []).append((i, stuck, negate))
        self.where = where


def _forced(
    o: str, z: str, site: Site, polarities: int, m: Callable[..., str]
) -> Tuple[str, str]:
    """Force expressions for one site's ``(ones, zeros)`` operands.

    Only the polarities the site carries are written: stuck-at-1 lanes
    give ``o|f1``, ``z&~f1``; stuck-at-0 lanes give ``o&~f0``,
    ``z|f0``; a site with both keeps the oracle's pair.  ``o`` and
    ``z`` must be atoms or parenthesized.  ``m(site, stuck,
    negate=False)`` records a mask slot and returns the name it is read
    by.
    """
    if polarities == 3:
        return (
            f"(({o}|{m(site, 1)})&{m(site, 0, True)})",
            f"(({z}|{m(site, 0)})&{m(site, 1, True)})",
        )
    if polarities == 2:
        return f"({o}|{m(site, 1)})", f"({z}&{m(site, 1, True)})"
    return f"({o}&{m(site, 0, True)})", f"({z}|{m(site, 0)})"


def _step_source(program: VectorProgram) -> Tuple[str, Tuple[Slot, ...]]:
    """Generate the unrolled step source for ``program``'s force layout.

    One straight-line Python function with constant row indices replaces
    the interpreted op loop — no per-op tuple unpacking or opcode
    dispatch, which dominates the cost once the big-int arithmetic
    itself is only a few machine words wide.  It first forces the
    already loaded PI and flip-flop rows, then evaluates every gate with
    its pin and stem forces.

    Returns ``(source, slots)``.  The source names each force mask
    ``M[i]``, to be read from the running program's mask at site and
    stuck value ``slots[i][0]``, complemented when ``slots[i][1]``.  So
    the source depends only on the force *layout* (which rows and pins
    carry which polarities) — never on the lanes, the block count or
    the mask values — and every program whose layout it covers can run
    it (:class:`StepCode`).
    """
    comp = program.comp
    forces = program.forces
    slots: List[Slot] = []

    def m(site: Site, stuck: int, negate: bool = False) -> str:
        slots.append(((site, stuck), negate))
        return f"M[{len(slots) - 1}]"

    lines = ["def _step_ops(O, Z, M):"]
    op_rows = {out for _, out, _ in comp.ops}
    loaded = sorted(
        site for site in forces if isinstance(site, int) and site not in op_rows
    )
    for row in loaded:
        oexpr, zexpr = _forced(
            f"O[{row}]", f"Z[{row}]", row, program.polarities(row), m
        )
        lines.append(f" O[{row}] = {oexpr}")
        lines.append(f" Z[{row}] = {zexpr}")
    for opcode, out, fanins in comp.ops:
        fo = []
        fz = []
        for k, f in enumerate(fanins):
            oe = f"O[{f}]"
            ze = f"Z[{f}]"
            pin = (out, k)
            if pin in forces:
                oe, ze = _forced(oe, ze, pin, program.polarities(pin), m)
            fo.append(oe)
            fz.append(ze)
        statements, oexpr, zexpr = gate_source(opcode, fo, fz)
        lines.extend(" " + statement for statement in statements)
        if out in forces:
            oexpr, zexpr = _forced(
                f"({oexpr})", f"({zexpr})", out, program.polarities(out), m
            )
        lines.append(f" O[{out}] = {oexpr}")
        lines.append(f" Z[{out}] = {zexpr}")
    lines.append(" pass")
    return "\n".join(lines), tuple(slots)


@functools.lru_cache(maxsize=STEP_MEMO_SIZE)
def _step_function(source: str):
    """Compile generated step ``source`` once per process.

    Keyed by the source text, so every program, engine and simulator in
    the process reuses a function whose force layout it has already
    compiled.  The memo holds code only; mask values stay
    per kernel.
    """
    namespace: dict = {}
    exec(compile(source, "<vector-int-step>", "exec"), namespace)
    return namespace["_step_ops"]


def _own_code(program: VectorProgram) -> StepCode:
    """Step code compiled from ``program``'s own layout."""
    source, slots = _step_source(program)
    return StepCode(_step_function(source), slots)


def _start(program: VectorProgram) -> None:
    """Choose the code a program starts on.

    A program whose layout its circuit's covering layout carries starts
    on the covering code, compiled at most once per compiled circuit;
    when the layouts are equal, that code is its own.  Any other
    program compiles its own layout at once.
    """
    cover = covering(program.comp)
    if not covers(cover, program):
        program.code = _own_code(program)
        program.own = True
        return
    if cover.code is None:
        cover.code = _own_code(cover)
        cover.own = True
    program.code = cover.code
    program.own = len(program.forces) == len(cover.forces) and all(
        program.polarities(site) == cover.polarities(site)
        for site in program.forces
    )


def _tier_up(program: VectorProgram) -> None:
    """Move a covered program to code compiled from its own layout."""
    program.code = _own_code(program)
    program.own = True


class IntKernel:
    """Pure-stdlib kernel: one arbitrary-precision int per net."""

    def __init__(self, program: VectorProgram, n_blocks: int = 1) -> None:
        self.program = program
        self.n_blocks = n_blocks
        lanes = program.lanes
        self.words_per_block = -(-lanes // WORD_BITS)
        self.block_bits = self.words_per_block * WORD_BITS
        p = self.block_bits
        self.full = (1 << (n_blocks * p)) - 1
        self._block_all = [((1 << p) - 1) << (b * p) for b in range(n_blocks)]
        fault_lanes = ((1 << lanes) - 1) & ~1
        self._block_fault = [fault_lanes << (b * p) for b in range(n_blocks)]
        self.fault_lanes = 0
        for mask in self._block_fault:
            self.fault_lanes |= mask
        self.active = self.fault_lanes
        # A block-0 mask times ``seed`` is that mask in every block.
        self._seed = self.full // ((1 << p) - 1)

        if program.code is None:
            _start(program)
        self._load_code()
        seed = self._seed
        self._ff_capture = {
            slot: (f0 * seed, f1 * seed)
            for slot, (f0, f1) in program.ff_capture.items()
        }
        n_ff = len(program.ff_rows)
        self.S_O = [0] * n_ff
        self.S_Z = [0] * n_ff
        self.O = [0] * program.n_circuit_rows
        self.Z = [0] * program.n_circuit_rows

    def _load_code(self) -> None:
        """Run the program's current step code, with the program's masks
        at its own sites and zero masks at every other slot."""
        code = self.program.code
        seed = self._seed
        masks = list(code.zeros)
        where = code.where
        for site, pair in self.program.forces.items():
            for i, stuck, negate in where[site]:
                value = pair[stuck] * seed
                masks[i] = ~value if negate else value
        self._code = code
        self._step_ops = code.fn
        self._M = masks

    def block_fault_mask(self, block: int) -> int:
        return self._block_fault[block]

    # -- state management --------------------------------------------------

    def snapshot(self):
        return (list(self.S_O), list(self.S_Z), self.active)

    def restore(self, snap) -> None:
        s_o, s_z, active = snap
        self.S_O = list(s_o)
        self.S_Z = list(s_z)
        self.active = active

    def reset_state(self) -> None:
        n_ff = len(self.program.ff_rows)
        self.S_O = [0] * n_ff
        self.S_Z = [0] * n_ff

    def deactivate(self, mask: int) -> None:
        self.active &= ~mask

    def extract_lane(self, lane: int) -> List[Tuple[int, int]]:
        return [
            ((o >> lane) & 1, (z >> lane) & 1)
            for o, z in zip(self.S_O, self.S_Z)
        ]

    def load_state(self, lane_states: Sequence[Sequence[Tuple[int, int]]]) -> None:
        """Install per-lane flip-flop state (lane order, good first)."""
        n_ff = len(self.program.ff_rows)
        for slot in range(n_ff):
            o = 0
            z = 0
            for lane, st in enumerate(lane_states):
                o |= st[slot][0] << lane
                z |= st[slot][1] << lane
            self.S_O[slot] = o * self._seed
            self.S_Z[slot] = z * self._seed

    # -- stepping ----------------------------------------------------------

    def step(self, patterns: Sequence[Optional[Sequence[int]]]) -> int:
        """Apply one (already validated) pattern per block; ``None`` feeds X.

        Returns the newly detected lane mask and removes it from
        :attr:`active`.  A covered program past :data:`TIER_UP_STEPS`
        compiles its own layout first; every kernel on it then switches
        code and masks, and keeps its state words.
        """
        prog = self.program
        if not prog.own and prog.steps >= TIER_UP_STEPS:
            _tier_up(prog)
        if prog.code is not self._code:
            self._load_code()
        prog.steps += self.n_blocks
        full = self.full
        O = self.O
        Z = self.Z
        if self.n_blocks == 1:
            p = patterns[0]
            for slot, idx in enumerate(prog.pi_rows):
                v = p[slot] if p is not None else 2
                if v == V1:
                    O[idx], Z[idx] = full, 0
                elif v == V0:
                    O[idx], Z[idx] = 0, full
                else:
                    O[idx], Z[idx] = 0, 0
        else:
            block_all = self._block_all
            for slot, idx in enumerate(prog.pi_rows):
                o = 0
                z = 0
                for b, p in enumerate(patterns):
                    if p is None:
                        continue
                    v = p[slot]
                    if v == V1:
                        o |= block_all[b]
                    elif v == V0:
                        z |= block_all[b]
                O[idx], Z[idx] = o, z
        for slot, idx in enumerate(prog.ff_rows):
            O[idx] = self.S_O[slot]
            Z[idx] = self.S_Z[slot]
        for idx in prog.const0_rows:
            O[idx], Z[idx] = 0, full
        for idx in prog.const1_rows:
            O[idx], Z[idx] = full, 0

        self._step_ops(O, Z, self._M)

        detected = 0
        if self.active:
            if self.n_blocks == 1:
                act = self.active
                for idx in prog.po_rows:
                    o, z = O[idx], Z[idx]
                    if o & 1:
                        detected |= z & act
                    elif z & 1:
                        detected |= o & act
            else:
                block_fault = self._block_fault
                bb = self.block_bits
                for idx in prog.po_rows:
                    o, z = O[idx], Z[idx]
                    for b in range(self.n_blocks):
                        if (o >> (b * bb)) & 1:
                            detected |= z & block_fault[b]
                        elif (z >> (b * bb)) & 1:
                            detected |= o & block_fault[b]
                detected &= self.active
            self.active &= ~detected

        capture = self._ff_capture
        s_o = []
        s_z = []
        for slot, idx in enumerate(prog.ff_next_rows):
            o, z = O[idx], Z[idx]
            force = capture.get(slot)
            if force is not None:
                f0, f1 = force
                o = (o | f1) & ~f0
                z = (z | f0) & ~f1
            s_o.append(o)
            s_z.append(z)
        self.S_O = s_o
        self.S_Z = s_z
        return detected

    def discrepancies(self) -> List[Tuple[int, int]]:
        """Per circuit net: lanes whose value is the binary complement of
        the good machine's binary value, in the last stepped cycle."""
        out = []
        fl = self.fault_lanes
        O = self.O
        Z = self.Z
        if self.n_blocks == 1:
            for idx in range(self.program.n_circuit_rows):
                o, z = O[idx], Z[idx]
                if o & 1:
                    diff = z & fl
                elif z & 1:
                    diff = o & fl
                else:
                    continue
                if diff:
                    out.append((idx, diff))
            return out
        bb = self.block_bits
        block_fault = self._block_fault
        for idx in range(self.program.n_circuit_rows):
            o, z = O[idx], Z[idx]
            diff = 0
            for b in range(self.n_blocks):
                if (o >> (b * bb)) & 1:
                    diff |= z & block_fault[b]
                elif (z >> (b * bb)) & 1:
                    diff |= o & block_fault[b]
            if diff:
                out.append((idx, diff))
        return out
