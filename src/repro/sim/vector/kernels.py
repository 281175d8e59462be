"""The two interchangeable word-level kernels.

Both execute a :class:`~repro.sim.vector.program.VectorProgram` over a
lane space of ``n_blocks`` word-aligned *blocks*, one per simultaneous
stimulus.  Lane 0 of each block is that block's good machine; lane
``l`` is ``program.faults[l - 1]``.  Blocks never interact (bitwise ops
are lane-local), so a multi-block run is exactly ``n_blocks``
independent single-stimulus runs.

The kernels consume different schedule views of the same program:

* :class:`IntKernel` compiles :attr:`VectorProgram.flat_ops` — the
  oracle's own topological order — into one straight-line generated
  function, with branch faults applied as ephemeral pin forces inside
  the gate fold, exactly like ``_GroupSim._eval_with_pin_forces``.
* :class:`NumpyKernel` walks :attr:`VectorProgram.waves`, where
  same-shape gates are packed into one gather + reduce per wave and
  pin forces apply to the wave's gathered fanin values in place.

Detection and state capture replicate the oracle bit for bit:

* forces apply as ``o = (o | f1) & ~f0``, ``z = (z | f0) & ~f1``;
* detection happens *before* state capture, only while ``active`` is
  non-zero, and uses the conservative binary-good/binary-complement
  criterion per primary output;
* padding lanes (and lanes past the fault count) carry an extra copy of
  the good machine — they are force-free and masked out of detection
  and discrepancy reads, so they can never influence a result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.compile import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    gate_source,
)
from repro.sim.values import V0, V1
from repro.sim.vector import packing as _packing
from repro.sim.vector.program import VectorProgram


def _compile_int_step(program: VectorProgram):
    """Generate the unrolled gate-evaluation function for ``program``.

    One straight-line Python function with constant row indices replaces
    the interpreted op loop — no per-op tuple unpacking or opcode
    dispatch, which dominates the cost once the big-int arithmetic
    itself is only a few machine words wide.  Returns
    ``(step_ops, mask_plan)``; the kernel materializes ``M[i]`` from the
    plan as the replicated force mask (``f0``/``f1``) or the complement
    of the replicated mask (``nf0``/``nf1``), so the generated source is
    independent of block count and is cached on the program.
    """
    masks = []

    def m(kind: str, value: int) -> str:
        masks.append((kind, value))
        return f"M[{len(masks) - 1}]"

    lines = ["def _step_ops(O, Z, M):"]
    for opcode, out, fanins, stem, pf in program.flat_ops:
        fo = []
        fz = []
        for k, f in enumerate(fanins):
            oe = f"O[{f}]"
            ze = f"Z[{f}]"
            if pf is not None and k in pf:
                f0, f1 = pf[k]
                oe = f"(({oe}|{m('f1', f1)})&{m('nf0', f0)})"
                ze = f"(({ze}|{m('f0', f0)})&{m('nf1', f1)})"
            fo.append(oe)
            fz.append(ze)
        statements, oexpr, zexpr = gate_source(opcode, fo, fz)
        lines.extend(" " + statement for statement in statements)
        if stem is not None:
            f0, f1 = stem
            oexpr = f"(({oexpr})|{m('f1', f1)})&{m('nf0', f0)}"
            zexpr = f"(({zexpr})|{m('f0', f0)})&{m('nf1', f1)}"
        lines.append(f" O[{out}] = {oexpr}")
        lines.append(f" Z[{out}] = {zexpr}")
    lines.append(" pass")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<vector-int-step>", "exec"), namespace)
    return namespace["_step_ops"], tuple(masks)


def make_kernel(
    program: VectorProgram,
    n_blocks: int = 1,
    packing: Optional[str] = None,
    word_bits: Optional[int] = None,
):
    """Build the kernel for ``program``, honoring the packing policy."""
    if packing is None:
        packing = _packing.choose_packing(
            -(-program.lanes // (word_bits or _packing.WORD_BITS)), n_blocks
        )
    if packing == "numpy":
        return NumpyKernel(program, n_blocks)
    return IntKernel(program, n_blocks, word_bits=word_bits)


class IntKernel:
    """Pure-stdlib kernel: one arbitrary-precision int per net.

    ``word_bits`` only controls block padding (blocks are padded to a
    word multiple so lane arithmetic matches the numpy layout); any
    width produces identical results, which the word-width regression
    test pins.
    """

    name = "int"

    def __init__(
        self,
        program: VectorProgram,
        n_blocks: int = 1,
        word_bits: Optional[int] = None,
    ) -> None:
        self.program = program
        self.n_blocks = n_blocks
        self.word_bits = word_bits or _packing.WORD_BITS
        lanes = program.lanes
        self.words_per_block = -(-lanes // self.word_bits)
        self.block_bits = self.words_per_block * self.word_bits
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
        self._load_forces = [
            (row, rep(f0), rep(f1)) for row, f0, f1 in program.load_forces
        ]
        cached = program.codegen_cache.get("int_step")
        if cached is None:
            cached = _compile_int_step(program)
            program.codegen_cache["int_step"] = cached
        self._step_ops, mask_plan = cached
        self._M = [
            ~rep(value) if kind in ("nf0", "nf1") else rep(value)
            for kind, value in mask_plan
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
        for row, f0, f1 in self._load_forces:
            o, z = O[row], Z[row]
            O[row] = (o | f1) & ~f0
            Z[row] = (z | f0) & ~f1

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


class NumpyKernel:
    """numpy kernel: ``uint64`` planes of shape ``(n_rows, n_words)``."""

    name = "numpy"

    def __init__(self, program: VectorProgram, n_blocks: int = 1) -> None:
        import numpy as np

        self._np = np
        self.program = program
        self.n_blocks = n_blocks
        self.word_bits = 64
        lanes = program.lanes
        self.words_per_block = -(-lanes // 64)
        self.block_bits = self.words_per_block * 64
        w = n_blocks * self.words_per_block
        self.n_words = w
        self.full = (1 << (w * 64)) - 1
        fault_lanes = ((1 << lanes) - 1) & ~1
        p = self.block_bits
        self._block_fault = [fault_lanes << (b * p) for b in range(n_blocks)]
        self.fault_lanes = 0
        for mask in self._block_fault:
            self.fault_lanes |= mask
        self.active = self.fault_lanes
        self._active_row = self._row(self.active)

        self._ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
        self._ZERO = np.uint64(0)
        self._ONE = np.uint64(1)
        idx = np.intp
        self._pi_rows = np.array(program.pi_rows, dtype=idx)
        self._ff_rows = np.array(program.ff_rows, dtype=idx)
        self._po_rows = np.array(program.po_rows, dtype=idx)
        self._ff_next_rows = np.array(program.ff_next_rows, dtype=idx)
        self._word_block = np.repeat(np.arange(n_blocks), self.words_per_block)
        self._first_words = np.arange(n_blocks) * self.words_per_block
        self._fault_row = self._row(self.fault_lanes)

        lf = program.load_forces
        if lf:
            self._load_rows = np.array([row for row, _, _ in lf], dtype=idx)
            self._load_f0 = np.stack(
                [self._replicate_row(f0) for _, f0, _ in lf]
            )
            self._load_f1 = np.stack(
                [self._replicate_row(f1) for _, _, f1 in lf]
            )
        else:
            self._load_rows = None

        self._waves = []
        for opcode, _arity, outs, fanins, stems, pins in program.waves:
            if stems:
                spos = np.array([pos for pos, _, _ in stems], dtype=idx)
                sf0 = np.stack([self._replicate_row(f0) for _, f0, _ in stems])
                sf1 = np.stack([self._replicate_row(f1) for _, _, f1 in stems])
                sarr = (spos, sf0, sf1)
            else:
                sarr = None
            if pins:
                # Dense per-wave (n, arity, words) force planes; zero
                # masks leave unforced pins untouched.
                pf0 = np.zeros((len(outs), len(fanins[0]), w), dtype=np.uint64)
                pf1 = np.zeros_like(pf0)
                for pos, pin, f0, f1 in pins:
                    pf0[pos, pin] = self._replicate_row(f0)
                    pf1[pos, pin] = self._replicate_row(f1)
                parr = (pf0, pf1)
            else:
                parr = None
            self._waves.append(
                (
                    opcode,
                    np.array(outs, dtype=idx),
                    np.array(fanins, dtype=idx),
                    sarr,
                    parr,
                )
            )

        cap = sorted(program.ff_capture)
        if cap:
            self._cap_slots = np.array(cap, dtype=idx)
            self._cap_f0 = np.stack(
                [self._replicate_row(program.ff_capture[s][0]) for s in cap]
            )
            self._cap_f1 = np.stack(
                [self._replicate_row(program.ff_capture[s][1]) for s in cap]
            )
        else:
            self._cap_slots = None

        n_ff = len(program.ff_rows)
        self.O = np.zeros((program.n_circuit_rows, w), dtype=np.uint64)
        self.Z = np.zeros((program.n_circuit_rows, w), dtype=np.uint64)
        self.S_O = np.zeros((n_ff, w), dtype=np.uint64)
        self.S_Z = np.zeros((n_ff, w), dtype=np.uint64)
        # Constant rows are never overwritten: set them once.
        if program.const0_rows:
            c0 = np.array(program.const0_rows, dtype=idx)
            self.Z[c0] = self._ALL
        if program.const1_rows:
            c1 = np.array(program.const1_rows, dtype=idx)
            self.O[c1] = self._ALL

    # -- int <-> row conversions -------------------------------------------

    def _row(self, mask: int):
        np = self._np
        return np.frombuffer(
            mask.to_bytes(self.n_words * 8, "little"), dtype="<u8"
        ).astype(np.uint64)

    def _replicate_row(self, mask: int):
        out = 0
        for b in range(self.n_blocks):
            out |= mask << (b * self.block_bits)
        return self._row(out)

    @staticmethod
    def _to_int(row) -> int:
        return int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")

    def block_fault_mask(self, block: int) -> int:
        return self._block_fault[block]

    # -- state management --------------------------------------------------

    def snapshot(self):
        return (self.S_O.copy(), self.S_Z.copy(), self.active)

    def restore(self, snap) -> None:
        s_o, s_z, active = snap
        self.S_O = s_o.copy()
        self.S_Z = s_z.copy()
        self.active = active
        self._active_row = self._row(active)

    def reset_state(self) -> None:
        self.S_O[:] = 0
        self.S_Z[:] = 0

    def deactivate(self, mask: int) -> None:
        self.active &= ~mask
        self._active_row = self._row(self.active)

    def extract_lane(self, lane: int) -> List[Tuple[int, int]]:
        w, bit = divmod(lane, 64)
        return [
            ((int(self.S_O[s, w]) >> bit) & 1, (int(self.S_Z[s, w]) >> bit) & 1)
            for s in range(self.S_O.shape[0])
        ]

    def load_state(self, lane_states: Sequence[Sequence[Tuple[int, int]]]) -> None:
        for slot in range(self.S_O.shape[0]):
            o = 0
            z = 0
            for lane, st in enumerate(lane_states):
                o |= st[slot][0] << lane
                z |= st[slot][1] << lane
            self.S_O[slot] = self._replicate_row(o)
            self.S_Z[slot] = self._replicate_row(z)

    # -- stepping ----------------------------------------------------------

    def step(self, patterns: Sequence[Optional[Sequence[int]]]) -> int:
        np = self._np
        prog = self.program
        O = self.O
        Z = self.Z
        ALL = self._ALL
        ZERO = self._ZERO

        n_pi = len(prog.pi_rows)
        vals = np.empty((n_pi, self.n_blocks), dtype=np.uint8)
        for b, p in enumerate(patterns):
            if p is None:
                vals[:, b] = 2
            else:
                vals[:, b] = p
        wb = self._word_block
        O[self._pi_rows] = np.where((vals == 1)[:, wb], ALL, ZERO)
        Z[self._pi_rows] = np.where((vals == 0)[:, wb], ALL, ZERO)
        O[self._ff_rows] = self.S_O
        Z[self._ff_rows] = self.S_Z
        if self._load_rows is not None:
            rows = self._load_rows
            o = O[rows]
            z = Z[rows]
            O[rows] = (o | self._load_f1) & ~self._load_f0
            Z[rows] = (z | self._load_f0) & ~self._load_f1

        for opcode, outs, fanins, stems, pins in self._waves:
            FO = O[fanins]
            FZ = Z[fanins]
            if pins is not None:
                pf0, pf1 = pins
                FO = (FO | pf1) & ~pf0
                FZ = (FZ | pf0) & ~pf1
            if opcode == OP_AND or opcode == OP_NAND:
                o = np.bitwise_and.reduce(FO, axis=1)
                z = np.bitwise_or.reduce(FZ, axis=1)
                if opcode == OP_NAND:
                    o, z = z, o
            elif opcode == OP_OR or opcode == OP_NOR:
                o = np.bitwise_or.reduce(FO, axis=1)
                z = np.bitwise_and.reduce(FZ, axis=1)
                if opcode == OP_NOR:
                    o, z = z, o
            elif opcode == OP_NOT:
                o, z = FZ[:, 0], FO[:, 0]
            elif opcode == OP_BUF:
                o, z = FO[:, 0], FZ[:, 0]
            else:  # XOR / XNOR
                o, z = FO[:, 0], FZ[:, 0]
                for k in range(1, FO.shape[1]):
                    fo, fz = FO[:, k], FZ[:, k]
                    o, z = (o & fz) | (z & fo), (o & fo) | (z & fz)
                if opcode == OP_XNOR:
                    o, z = z, o
            if stems is not None:
                spos, sf0, sf1 = stems
                o = o.copy() if o.base is not None else o
                z = z.copy() if z.base is not None else z
                o[spos] = (o[spos] | sf1) & ~sf0
                z[spos] = (z[spos] | sf0) & ~sf1
            O[outs] = o
            Z[outs] = z

        detected = 0
        if self.active:
            po_o = O[self._po_rows]
            po_z = Z[self._po_rows]
            fw = self._first_words
            g1 = (po_o[:, fw] & self._ONE).astype(bool)[:, wb]
            g0 = (po_z[:, fw] & self._ONE).astype(bool)[:, wb]
            diff = np.where(g1, po_z, np.where(g0, po_o, ZERO))
            diff &= self._active_row
            if diff.any():
                drow = np.bitwise_or.reduce(diff, axis=0)
                detected = self._to_int(drow)
                self.active &= ~detected
                self._active_row &= ~drow

        ns_o = O[self._ff_next_rows]
        ns_z = Z[self._ff_next_rows]
        if self._cap_slots is not None:
            slots = self._cap_slots
            o = ns_o[slots]
            z = ns_z[slots]
            ns_o[slots] = (o | self._cap_f1) & ~self._cap_f0
            ns_z[slots] = (z | self._cap_f0) & ~self._cap_f1
        self.S_O = ns_o
        self.S_Z = ns_z
        return detected

    def discrepancies(self) -> List[Tuple[int, int]]:
        np = self._np
        n = self.program.n_circuit_rows
        O = self.O[:n]
        Z = self.Z[:n]
        fw = self._first_words
        wb = self._word_block
        g1 = (O[:, fw] & self._ONE).astype(bool)[:, wb]
        g0 = (Z[:, fw] & self._ONE).astype(bool)[:, wb]
        diff = np.where(g1, Z, np.where(g0, O, self._ZERO))
        diff &= self._fault_row
        rows = np.nonzero(diff.any(axis=1))[0]
        return [(int(r), self._to_int(diff[r])) for r in rows]
