"""The word-level kernel of the vector backend.

:class:`IntKernel` executes a :class:`~repro.sim.vector.program.VectorProgram`
over a lane space of ``n_blocks`` word-aligned *blocks*, one per
simultaneous stimulus.  Lane 0 of each block is that block's good
machine; lane ``l`` is ``program.faults[l - 1]``.  Blocks never interact
(bitwise ops are lane-local), so a multi-block run is exactly
``n_blocks`` independent single-stimulus runs.

The kernel compiles :attr:`VectorProgram.flat_ops` — the oracle's own
topological order — into one straight-line generated function, with
PI/flip-flop load forces written at its top and branch faults applied
as ephemeral pin forces inside the gate fold, exactly like
``_GroupSim._eval_with_pin_forces``.  The generated text depends only
on the program's force layout, and its force masks are read from a
per-kernel list, so one compiled function serves every fault list
with the same layout: :func:`_step_function` keeps the last
:data:`STEP_MEMO_SIZE` of them per process, keyed by the source text.

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
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.compile import gate_source
from repro.sim.values import V0, V1
from repro.sim.vector.program import VectorProgram

WORD_BITS = 64
"""Lanes per machine word.  Lane 0 of each block is the good machine;
blocks are padded to a whole number of words."""

STEP_MEMO_SIZE = 8
"""Compiled step functions kept per process (least recently used
evicted).  Static compaction's repeated survivor layouts fit in a few
entries; a larger memo keeps more compiled code resident for few extra
reuses (64 entries: +12% peak RSS on a g208 flow, no faster)."""


def _forced(
    o: str, z: str, f0: int, f1: int, m: Callable[..., str]
) -> Tuple[str, str]:
    """Force expressions for one site's ``(ones, zeros)`` operands.

    Only the polarities the site carries are written: stuck-at-1 lanes
    give ``o|f1``, ``z&~f1``; stuck-at-0 lanes give ``o&~f0``,
    ``z|f0``; a site with both keeps the oracle's pair.  ``o`` and
    ``z`` must be atoms or parenthesized.  ``m(value, negate=False)``
    records a mask and returns the name it is read by.
    """
    if f0 and f1:
        return (
            f"(({o}|{m(f1)})&{m(f0, True)})",
            f"(({z}|{m(f0)})&{m(f1, True)})",
        )
    if f1:
        return f"({o}|{m(f1)})", f"({z}&{m(f1, True)})"
    return f"({o}&{m(f0, True)})", f"({z}|{m(f0)})"


def _step_source(program: VectorProgram) -> Tuple[str, Tuple[Tuple[int, bool], ...]]:
    """Generate the unrolled step source for ``program``.

    One straight-line Python function with constant row indices replaces
    the interpreted op loop — no per-op tuple unpacking or opcode
    dispatch, which dominates the cost once the big-int arithmetic
    itself is only a few machine words wide.  It first forces the
    already loaded PI and flip-flop rows, then evaluates every gate with
    its pin and stem forces.

    Returns ``(source, mask_plan)``.  The source names each force mask
    ``M[i]``; the kernel materializes ``M[i]`` from ``mask_plan[i] =
    (value, negate)`` as the block-replicated ``value``, complemented
    when ``negate``.  So the source depends only on the force *layout*
    (which rows and pins carry which polarities) — never on the lanes
    or the block count — and fault lists sharing a layout share one
    compiled function (:func:`_step_function`).
    """
    masks: List[Tuple[int, bool]] = []

    def m(value: int, negate: bool = False) -> str:
        masks.append((value, negate))
        return f"M[{len(masks) - 1}]"

    lines = ["def _step_ops(O, Z, M):"]
    for row, f0, f1 in program.load_forces:
        oexpr, zexpr = _forced(f"O[{row}]", f"Z[{row}]", f0, f1, m)
        lines.append(f" O[{row}] = {oexpr}")
        lines.append(f" Z[{row}] = {zexpr}")
    for opcode, out, fanins, stem, pf in program.flat_ops:
        fo = []
        fz = []
        for k, f in enumerate(fanins):
            oe = f"O[{f}]"
            ze = f"Z[{f}]"
            if pf is not None and k in pf:
                oe, ze = _forced(oe, ze, *pf[k], m)
            fo.append(oe)
            fz.append(ze)
        statements, oexpr, zexpr = gate_source(opcode, fo, fz)
        lines.extend(" " + statement for statement in statements)
        if stem is not None:
            oexpr, zexpr = _forced(f"({oexpr})", f"({zexpr})", *stem, m)
        lines.append(f" O[{out}] = {oexpr}")
        lines.append(f" Z[{out}] = {zexpr}")
    lines.append(" pass")
    return "\n".join(lines), tuple(masks)


@functools.lru_cache(maxsize=STEP_MEMO_SIZE)
def _step_function(source: str):
    """Compile generated step ``source`` once per process.

    Keyed by the source text, so every program, engine, simulator and
    pool worker in the process reuses a function whose force layout it
    has already compiled (static compaction rebuilds the same survivor
    layouts many times).  The memo holds code only; mask values stay
    per kernel.
    """
    namespace: dict = {}
    exec(compile(source, "<vector-int-step>", "exec"), namespace)
    return namespace["_step_ops"]


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

        rep = self._replicate
        if program.step_code is None:
            program.step_code = _step_source(program)
        source, mask_plan = program.step_code
        self._step_ops = _step_function(source)
        self._M = [
            ~rep(value) if negate else rep(value)
            for value, negate in mask_plan
        ]
        self._ff_capture = {
            slot: (rep(f0), rep(f1))
            for slot, (f0, f1) in program.ff_capture.items()
        }
        n_ff = len(program.ff_rows)
        self.S_O = [0] * n_ff
        self.S_Z = [0] * n_ff
        self.O = [0] * program.n_circuit_rows
        self.Z = [0] * program.n_circuit_rows

    def _replicate(self, mask: int) -> int:
        out = 0
        for b in range(self.n_blocks):
            out |= mask << (b * self.block_bits)
        return out

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
            self.S_O[slot] = self._replicate(o)
            self.S_Z[slot] = self._replicate(z)

    # -- stepping ----------------------------------------------------------

    def step(self, patterns: Sequence[Optional[Sequence[int]]]) -> int:
        """Apply one (already validated) pattern per block; ``None`` feeds X.

        Returns the newly detected lane mask and removes it from
        :attr:`active`.
        """
        prog = self.program
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
