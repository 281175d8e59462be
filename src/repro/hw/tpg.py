"""Synthesis of the test sequence generator of Figure 1.

The TPG consists of:

* a **cycle counter** counting ``0 .. L_G - 1`` (its terminal count
  advances the assignment counter — "a binary counter that advances
  every L_G clock cycles" in the paper's words),
* an **assignment counter** selecting the active weight assignment
  ``Ω_1 .. Ω_m``,
* one **weight FSM per subsequence length**, each a modulo-``L_S``
  state counter whose output logic (synthesized with Quine-McCluskey,
  unreachable states as don't-cares) emits every subsequence of that
  length, and
* per-CUT-input **selection logic** routing the right FSM output to the
  input under the active assignment (the multiplexers of Figure 1).

Everything is emitted as an ordinary :class:`~repro.circuit.Circuit`
with a single ``reset`` primary input, so the TPG can be simulated,
fault-simulated, exported to ``.bench``, and verified cycle-exact
against the software-generated weighted sequences
(:mod:`repro.hw.verify`).

Design choice: the weight FSMs restart at every assignment boundary
(synchronous clear on the cycle counter's terminal count), which makes
the hardware sequence of assignment ``j`` identical to
``assignment.generate(L_G)`` — the same semantics the selection
procedure simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.lfsr import Lfsr
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.core.assignment import AnyWeight, WeightAssignment
from repro.core.weight import Weight
from repro.errors import HardwareError
from repro.hw.fsm import WeightFsm, build_weight_fsms, find_output
from repro.hw.qm import Cube, minimize
from repro.sim.values import Value
from repro.tgen.sequence import TestSequence

#: Register prefixes of the generator's flip-flops; bit ``k`` of
#: register ``r`` is the flip-flop ``r_q{k}`` (:func:`_register`).
#: Weight FSM ``i``'s state register is ``fsm{i}``.
_CYCLE = "cyc"
_SELECT = "sel"
_LFSR = "lfsr"


@dataclass(frozen=True)
class LfsrSpec:
    """On-chip LFSR parameters for pseudo-random weights.

    The LFSR is reloaded with ``seed`` at reset and at every assignment
    boundary, so each assignment window sees the same reproducible
    stream — which is what lets :func:`~repro.hw.verify.verify_tpg`
    check the hardware cycle-exact.

    Attributes
    ----------
    width:
        Register width (2..32; primitive feedback polynomial built in).
    seed:
        Non-zero initial state.
    """

    width: int = 8
    seed: int = 1

    def bit_stream(self, bit: int, length: int) -> Tuple[int, ...]:
        """The trace of state bit ``bit`` over ``length`` cycles."""
        lfsr = Lfsr(self.width, self.seed)
        values = []
        for _ in range(length):
            values.append((lfsr.state >> bit) & 1)
            lfsr.step()
        return tuple(values)


@dataclass(frozen=True)
class TpgDesign:
    """A synthesized test pattern generator.

    Attributes
    ----------
    circuit:
        The TPG netlist.  One PI (``reset``); one PO per CUT input, in
        the same order as the assignments' weights.
    assignments:
        The weight assignments the TPG applies, in order.
    l_g:
        Cycles spent on each assignment.
    fsms:
        The weight FSM bank.
    output_ports:
        PO names, one per CUT input.
    alphabet:
        The quantized weight alphabet the hardware supports, when the
        design was synthesized for one (e.g. by the optimizer).  The
        FSM bank then covers every alphabet weight — including ones no
        current assignment references — so the same silicon can realize
        any assignment drawn from the alphabet.  ``None`` for designs
        synthesized from their assignments alone.
    """

    circuit: Circuit
    assignments: Tuple[WeightAssignment, ...]
    l_g: int
    fsms: Tuple[WeightFsm, ...]
    output_ports: Tuple[str, ...]
    lfsr: Optional[LfsrSpec] = None
    alphabet: Optional[Tuple[Weight, ...]] = None

    @property
    def n_assignments(self) -> int:
        """Number of weight assignments applied."""
        return len(self.assignments)

    @property
    def total_cycles(self) -> int:
        """Cycles to apply every assignment once (excluding the reset
        cycle)."""
        return self.n_assignments * self.l_g

    def expected_stream(self, assignment_index: int) -> TestSequence:
        """The weighted sequence the hardware must emit for one
        assignment window (:meth:`expected_column` per input)."""
        assignment = self.assignments[assignment_index]
        columns = [
            self.expected_column(i, weight)
            for i, weight in enumerate(assignment.weights)
        ]
        return TestSequence(zip(*columns))

    def expected_column(self, port: int, weight: AnyWeight) -> Tuple[int, ...]:
        """The values CUT input ``port`` must carry over one assignment
        window whose weight for it is ``weight``.

        Deterministic weights expand as usual; a pseudo-random weight
        reads the on-chip LFSR's bit trace (input ``i`` taps state bit
        ``width - 1 - (i mod width)``).
        """
        if weight.is_random:
            if self.lfsr is None:
                raise HardwareError("design has random weights but no LFSR spec")
            bit = self.lfsr.width - 1 - (port % self.lfsr.width)
            return self.lfsr.bit_stream(bit, self.l_g)
        return weight.expand(self.l_g)

    def window_start(self, assignment_index: int) -> Tuple[Value, ...]:
        """The flip-flop values (``circuit.flops`` order) a correct
        generator holds at the first cycle of one assignment window.

        That is the reset state with the assignment counter at
        ``assignment_index``: the terminal count that ends a window
        clears the cycle counter and every weight FSM and reloads the
        LFSR seed, as reset does, and only advances the assignment
        counter.  Flip-flops of no register this module names read 0.
        :func:`~repro.hw.verify.verify_tpg` starts its replay lanes from
        these values and proves each one before it trusts it.
        """
        seed = (
            Lfsr(self.lfsr.width, self.lfsr.seed).state
            if self.lfsr is not None
            else 0
        )
        registers = {_SELECT: assignment_index, _LFSR: seed}
        values = []
        for name in self.circuit.flops:
            register, _, bit = name.rpartition("_q")
            word = registers.get(register, 0)
            values.append((word >> int(bit)) & 1 if bit.isdigit() else 0)
        return tuple(values)


class _Netlist:
    """Wraps :class:`CircuitBuilder` with memoized constants, memoized
    inverters, and unique naming.  The builder resolves fanins at build
    time, so gates may reference nets declared later (used for counter
    clear signals that depend on the counter's own bits)."""

    def __init__(self, name: str) -> None:
        self.b = CircuitBuilder(name)
        self._counter = 0
        self._const: Dict[int, str] = {}
        self._inverted: Dict[str, str] = {}

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def const(self, value: int) -> str:
        if value not in self._const:
            name = f"const{value}"
            if value:
                self.b.const1(name)
            else:
                self.b.const0(name)
            self._const[value] = name
        return self._const[value]

    def inv(self, net: str) -> str:
        if net not in self._inverted:
            name = self.fresh("inv")
            self.b.not_(name, net)
            self._inverted[net] = name
        return self._inverted[net]

    def and_(self, nets: Sequence[str]) -> str:
        nets = list(dict.fromkeys(nets))  # dedupe, keep order
        if not nets:
            return self.const(1)
        if len(nets) == 1:
            return nets[0]
        name = self.fresh("and")
        self.b.and_(name, *nets)
        return name

    def or_(self, nets: Sequence[str]) -> str:
        nets = list(dict.fromkeys(nets))
        if not nets:
            return self.const(0)
        if len(nets) == 1:
            return nets[0]
        name = self.fresh("or")
        self.b.or_(name, *nets)
        return name

    def xor(self, a: str, b: str) -> str:
        name = self.fresh("xor")
        self.b.xor(name, a, b)
        return name


def _register(prefix: str, n_bits: int) -> List[str]:
    """The flip-flop names of an ``n_bits`` register (LSB first)."""
    return [f"{prefix}_q{k}" for k in range(n_bits)]


def _decode(net: _Netlist, bits: Sequence[str], value: int) -> str:
    """AND-decode ``bits == value`` (LSB-first bit list)."""
    terms = []
    for k, bit in enumerate(bits):
        terms.append(bit if (value >> k) & 1 else net.inv(bit))
    return net.and_(terms)


def _counter(
    net: _Netlist,
    prefix: str,
    n_bits: int,
    reset: str,
    enable: Optional[str],
    clear: Optional[str],
) -> List[str]:
    """Declare an ``n_bits`` synchronous up-counter; return its state
    bits (LSB first).

    The increment carry chain is seeded with ``enable``: when disabled
    the carry is 0 everywhere and the counter holds.  ``clear`` (and
    ``reset``) force the next state to zero.  ``clear`` may name a net
    that is declared later (forward reference).
    """
    bits = _register(prefix, n_bits)
    carry = enable if enable is not None else net.const(1)
    guards = [net.inv(reset)]
    if clear is not None:
        guards.append(net.inv(clear))
    for k, bit in enumerate(bits):
        inc = net.xor(bit, carry)
        if k + 1 < n_bits:
            carry = net.and_([bit, carry])
        d = net.and_(guards + [inc])
        net.b.dff(bit, d)
    return bits


def _sop(net: _Netlist, bits: Sequence[str], cubes: Sequence[Cube]) -> str:
    """Materialize a sum-of-products over the state ``bits``."""
    if not cubes:
        return net.const(0)
    if len(cubes) == 1 and cubes[0].care == 0:
        return net.const(1)
    products = []
    for cube in cubes:
        literals = []
        for k, bit in enumerate(bits):
            mask = 1 << k
            if not cube.care & mask:
                continue
            literals.append(bit if cube.value & mask else net.inv(bit))
        products.append(net.and_(literals))
    return net.or_(products)


def synthesize_tpg(
    assignments: Sequence[WeightAssignment],
    l_g: int,
    input_names: Sequence[str] | None = None,
    name: str = "tpg",
    lfsr: Optional[LfsrSpec] = None,
    alphabet: Sequence[Weight] | None = None,
) -> TpgDesign:
    """Synthesize the Figure-1 generator for ``assignments``.

    Parameters
    ----------
    assignments:
        The weight assignments (all must share the same width).
        Pseudo-random weights require ``lfsr`` — an on-chip LFSR is
        synthesized and its state bits drive those inputs (the paper's
        Section-6 future-work extension).
    l_g:
        Cycles per assignment.
    input_names:
        CUT input names for the PO ports; defaults to ``in0, in1, ...``.
    name:
        Circuit name.
    lfsr:
        Optional on-chip LFSR parameters for pseudo-random weights.
    alphabet:
        Optional quantized weight alphabet to build the FSM bank for.
        The bank then realizes *every* alphabet weight, not only the
        ones the current assignments use; the extra outputs are
        declared on the design so the linter knows they are
        intentional.  Deterministic weights only.

    Returns
    -------
    A :class:`TpgDesign`.  Drive ``reset = 1`` for one cycle, then hold
    it low: output cycle ``1 + j * l_g + t`` carries value ``t`` of
    assignment ``j``'s weighted sequence
    (:meth:`TpgDesign.expected_stream`).
    """
    if not assignments:
        raise HardwareError("cannot synthesize a TPG for zero assignments")
    widths = {a.width for a in assignments}
    if len(widths) != 1:
        raise HardwareError(f"assignments have mixed widths: {sorted(widths)}")
    width = widths.pop()
    needs_lfsr = any(a.has_random for a in assignments)
    if needs_lfsr and lfsr is None:
        raise HardwareError(
            "assignments contain pseudo-random weights; pass an LfsrSpec "
            "to synthesize the on-chip LFSR"
        )
    if l_g < 1:
        raise HardwareError(f"l_g must be positive, got {l_g}")
    if input_names is None:
        input_names = [f"in{i}" for i in range(width)]
    if len(input_names) != width:
        raise HardwareError(
            f"{len(input_names)} input names for width-{width} assignments"
        )

    net = _Netlist(name)
    reset = net.b.input("reset")
    n_assignments = len(assignments)

    # Cycle counter with wrap at l_g - 1.  The terminal-count decode
    # references the counter bits before they are declared — the
    # builder resolves names at build time.
    if l_g == 1:
        at_max = net.const(1)
    else:
        n_cyc = (l_g - 1).bit_length()
        at_max = _decode(net, _register(_CYCLE, n_cyc), l_g - 1)
        _counter(net, _CYCLE, n_cyc, reset, None, at_max)

    # Assignment counter: advances on at_max, wraps after the last
    # assignment.
    if n_assignments == 1:
        sel_bits: List[str] = []
    else:
        n_sel = (n_assignments - 1).bit_length()
        sel_bits = _register(_SELECT, n_sel)
        at_last = _decode(net, sel_bits, n_assignments - 1)
        wrap = net.and_([at_last, at_max])
        _counter(net, _SELECT, n_sel, reset, at_max, wrap)

    # On-chip LFSR for pseudo-random weights: Fibonacci left-shift,
    # reloaded with the seed at reset and at every assignment boundary
    # (matching TpgDesign.expected_stream's software reference).
    lfsr_bits: List[str] = []
    if needs_lfsr:
        assert lfsr is not None
        golden = Lfsr(lfsr.width, lfsr.seed)  # validates width/taps/seed
        lfsr_bits = _register(_LFSR, lfsr.width)
        reload = net.or_([reset, at_max])
        not_reload = net.inv(reload)
        tap_bits = [lfsr_bits[tap - 1] for tap in golden.taps]
        if len(tap_bits) == 1:
            feedback = tap_bits[0]
        else:
            feedback = net.fresh("lfsr_fb")
            net.b.xor(feedback, *tap_bits)
        seed_value = golden.state
        for k in range(lfsr.width):
            next_net = feedback if k == 0 else lfsr_bits[k - 1]
            held = net.and_([not_reload, next_net])
            if (seed_value >> k) & 1:
                d = net.or_([reload, held])
            else:
                d = held
            net.b.dff(lfsr_bits[k], d)

    # Weight FSM bank: one modulo-length counter per distinct length,
    # output logic per subsequence (QM with unreachable-state
    # don't-cares), all restarted at assignment boundaries.
    all_weights: List[Weight] = []
    for assignment in assignments:
        all_weights.extend(assignment.deterministic_weights())
    if alphabet is not None:
        for weight in alphabet:
            if weight.is_random:
                raise HardwareError(
                    "the weight alphabet must contain deterministic "
                    "weights only (pseudo-random weights come from the "
                    "LFSR, not the FSM bank)"
                )
        all_weights.extend(alphabet)
    fsms = build_weight_fsms(all_weights)

    # Output logic is materialized only for the columns Ω references:
    # alphabet-only columns are declared capacity (their FSM counters
    # exist, and the bank metadata records them for lint/design reuse),
    # but emitting their SOPs would leave dangling nets in the netlist.
    used_columns = {
        find_output(fsms, w)
        for a in assignments
        for w in a.weights
        if not w.is_random
    }
    weight_nets: Dict[Tuple[int, int], str] = {}
    for fsm_index, fsm in enumerate(fsms):
        if fsm.length == 1:
            for out_index, weight in enumerate(fsm.outputs):
                if (fsm_index, out_index) in used_columns:
                    weight_nets[(fsm_index, out_index)] = net.const(
                        weight.bits[0]
                    )
            continue
        prefix = f"fsm{fsm_index}"
        n_state = fsm.n_state_bits
        state_names = _register(prefix, n_state)
        at_last_state = _decode(net, state_names, fsm.length - 1)
        clear = net.or_([at_last_state, at_max])
        _counter(net, prefix, n_state, reset, None, clear)
        unreachable = list(range(fsm.length, 1 << n_state))
        for out_index, weight in enumerate(fsm.outputs):
            if (fsm_index, out_index) not in used_columns:
                continue
            minterms = [s for s in range(fsm.length) if weight.bits[s] == 1]
            cubes = minimize(n_state, minterms, unreachable)
            weight_nets[(fsm_index, out_index)] = _sop(net, state_names, cubes)

    # Per-input selection logic (the multiplexers of Figure 1).
    output_ports = []
    for i, port in enumerate(input_names):
        sources = []
        for a in assignments:
            weight = a.weights[i]
            if weight.is_random:
                assert lfsr is not None
                bit = lfsr.width - 1 - (i % lfsr.width)
                sources.append(lfsr_bits[bit])
            else:
                sources.append(weight_nets[find_output(fsms, weight)])
        po_name = f"out_{port}"
        if len(set(sources)) == 1:
            net.b.buf(po_name, sources[0])
        else:
            terms = []
            for j, source in enumerate(sources):
                terms.append(net.and_([_decode(net, sel_bits, j), source]))
            or_net = net.or_(terms)
            net.b.buf(po_name, or_net)
        net.b.output(po_name)
        output_ports.append(po_name)

    circuit = net.b.build()
    return TpgDesign(
        circuit=circuit,
        assignments=tuple(assignments),
        l_g=l_g,
        fsms=tuple(fsms),
        output_ports=tuple(output_ports),
        lfsr=lfsr if needs_lfsr else None,
        alphabet=tuple(alphabet) if alphabet is not None else None,
    )
