"""Multiple-input signature register (MISR) response compaction.

The paper generates stimuli on chip but does not discuss response
analysis; any deployed BIST needs it.  This module completes the loop:

* :class:`Misr` — software-golden MISR (Fibonacci feedback, one XOR
  per input channel), absorbing one primary-output vector per cycle.
* :func:`synthesize_misr` — the same register as a netlist
  (:class:`~repro.circuit.Circuit`) that can be simulated, fault
  simulated, or exported.
* :func:`signature_coverage` — fault coverage under *signature-based*
  detection: a fault counts as detected only if some weight
  assignment's final signature differs from the fault-free signature.
  This is strictly weaker than per-cycle PO observation because of
  aliasing and unknown-value masking, and the gap is measurable
  (see ``benchmarks/test_misr_response.py``).

Unknown handling: with no reset, early output cycles are X.  A MISR
absorbing X is ruined, so a *mask* is computed from the fault-free
simulation — cycles/outputs that are X in the good machine are forced
to 0 on both machines (in hardware: a mask ROM or a settle-time gate).
A faulty machine producing X at an unmasked position has an unknown
signature and is conservatively counted as undetected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.baselines.lfsr import PRIMITIVE_TAPS
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.errors import HardwareError
from repro.sim.values import VX, Value


class Misr:
    """Software-golden MISR.

    State update per cycle (Fibonacci form, left shift):
    ``s0' = feedback XOR d0``, ``sk' = s(k-1) XOR dk`` where ``d`` is
    the (zero-padded) input vector and ``feedback`` is the XOR of the
    primitive-polynomial tap bits.

    Parameters
    ----------
    width:
        Register width; must be >= the number of input channels.
    n_inputs:
        Input channels (CUT primary outputs).
    seed:
        Initial state.
    taps:
        Feedback taps (1-based); defaults to a primitive polynomial.
    """

    def __init__(
        self,
        width: int,
        n_inputs: int,
        seed: int = 0,
        taps: Sequence[int] | None = None,
    ) -> None:
        if n_inputs > width:
            raise HardwareError(
                f"{n_inputs} input channels exceed MISR width {width}"
            )
        if taps is None:
            if width not in PRIMITIVE_TAPS:
                raise HardwareError(f"no primitive polynomial for width {width}")
            taps = PRIMITIVE_TAPS[width]
        self.width = width
        self.n_inputs = n_inputs
        self.taps = tuple(taps)
        self._mask = (1 << width) - 1
        self.state = seed & self._mask

    def absorb(self, bits: Sequence[int]) -> None:
        """Clock one cycle with ``bits`` on the input channels."""
        if len(bits) != self.n_inputs:
            raise HardwareError(
                f"absorb expects {self.n_inputs} bits, got {len(bits)}"
            )
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        shifted = ((self.state << 1) | feedback) & self._mask
        data = 0
        for k, bit in enumerate(bits):
            if bit not in (0, 1):
                raise HardwareError(f"MISR cannot absorb non-binary value {bit!r}")
            data |= bit << k
        self.state = shifted ^ data

    @property
    def signature(self) -> int:
        """The current signature."""
        return self.state

    def run(self, vectors: Sequence[Sequence[int]]) -> int:
        """Absorb all vectors; return the final signature."""
        for vector in vectors:
            self.absorb(vector)
        return self.state

    def aliasing_probability(self) -> float:
        """Asymptotic aliasing probability ``2^-width`` of a random
        error stream (the classical MISR bound)."""
        return 2.0 ** -self.width


def synthesize_misr(
    width: int,
    n_inputs: int,
    taps: Sequence[int] | None = None,
    name: str = "misr",
) -> Circuit:
    """Emit the MISR as a netlist.

    Ports: ``reset`` plus one data input ``d<k>`` per channel; outputs
    are the state bits ``s<k>`` (the signature, LSB first).  Reset
    clears the register to 0.
    """
    golden = Misr(width, n_inputs, 0, taps)  # validates width/taps
    b = CircuitBuilder(name)
    reset = b.input("reset")
    data = [b.input(f"d{k}") for k in range(n_inputs)]
    state = [f"s{k}" for k in range(width)]
    b.not_("nreset", reset)

    feedback_bits = [state[tap - 1] for tap in golden.taps]
    if len(feedback_bits) == 1:
        b.buf("feedback", feedback_bits[0])
    else:
        b.xor("feedback", *feedback_bits)

    for k in range(width):
        shifted = "feedback" if k == 0 else state[k - 1]
        if k < n_inputs:
            b.xor(f"mix{k}", shifted, data[k])
            mixed = f"mix{k}"
        else:
            mixed = shifted
        b.and_(f"dn{k}", "nreset", mixed)
        b.dff(state[k], f"dn{k}")
        b.output(state[k])
    return b.build()


@dataclass(frozen=True)
class SignatureCoverage:
    """Result of signature-based fault grading.

    Attributes
    ----------
    detected:
        Faults whose signature differs in some assignment window.
    aliased:
        Faults whose outputs differed at some cycle yet every window
        signature matched (classical aliasing).
    unknown:
        Faults producing X at an unmasked position (unknown signature,
        conservatively undetected).
    undetected:
        Faults with no output discrepancy at all under the applied
        sequences.
    masked_positions:
        Number of (cycle, output) positions masked because the good
        machine was X there.
    """

    detected: Tuple
    aliased: Tuple
    unknown: Tuple
    undetected: Tuple
    masked_positions: int

    @property
    def coverage(self) -> float:
        """Signature-detected fraction."""
        total = (
            len(self.detected)
            + len(self.aliased)
            + len(self.unknown)
            + len(self.undetected)
        )
        return len(self.detected) / total if total else 1.0


def signature_coverage(
    circuit: Circuit,
    stimuli: Sequence[Sequence[Sequence[Value]]],
    faults: Sequence,
    misr_width: int | None = None,
) -> SignatureCoverage:
    """Grade ``faults`` under signature-based detection.

    The good and faulty responses of each window come from one
    :meth:`~repro.sim.faultsim.FaultSimulator.output_responses` pass on
    the selected simulation backend.

    Parameters
    ----------
    circuit:
        The circuit under test.
    stimuli:
        One stimulus (pattern list) per assignment window; each window
        gets a fresh MISR and its own signature comparison.
    faults:
        Faults to grade.
    misr_width:
        MISR width; defaults to ``max(#POs, 8)``.
    """
    from repro.sim.faultsim import FaultSimulator

    faults = list(faults)
    n_po = len(circuit.outputs)
    width = misr_width or max(n_po, 8)
    sim = FaultSimulator(circuit)

    # Per window: the good machine's PO rows, the same rows with X
    # masked to 0 (what the MISR absorbs), the golden signature, and
    # every fault's PO differences from the good machine.
    windows = []
    masked_total = 0
    for stimulus in stimuli:
        good_rows, diffs = sim.output_responses(stimulus, faults)
        bit_rows = [[0 if v == VX else v for v in row] for row in good_rows]
        masked_total += sum(row.count(VX) for row in good_rows)
        golden = Misr(width, n_po).run(bit_rows)
        windows.append((good_rows, bit_rows, diffs, golden))

    detected = []
    aliased = []
    unknown = []
    undetected = []

    for fault in faults:
        verdict = "undetected"
        for good_rows, bit_rows, diffs, good_sig in windows:
            # The faulty machine absorbs the good bit rows with this
            # fault's differences applied at the unmasked positions.
            changed: Dict[int, List[int]] = {}
            window_unknown = False
            for (u, po), value in diffs[fault].items():
                if good_rows[u][po] == VX:
                    continue
                if value == VX:
                    # Unknown faulty value at an unmasked position:
                    # the real signature is indeterminate.
                    window_unknown = True
                    break
                changed.setdefault(u, list(bit_rows[u]))[po] = value
            if window_unknown:
                # Signature comparison is unsound for this window.
                verdict = _stronger(verdict, "unknown")
            elif changed:
                rows = [changed.get(u, bits) for u, bits in enumerate(bit_rows)]
                if Misr(width, n_po).run(rows) != good_sig:
                    verdict = "detected"
                    break
                verdict = _stronger(verdict, "aliased")
        {
            "detected": detected,
            "aliased": aliased,
            "unknown": unknown,
            "undetected": undetected,
        }[verdict].append(fault)

    return SignatureCoverage(
        detected=tuple(detected),
        aliased=tuple(aliased),
        unknown=tuple(unknown),
        undetected=tuple(undetected),
        masked_positions=masked_total,
    )


_STRENGTH = {"undetected": 0, "unknown": 1, "aliased": 2, "detected": 3}


def _stronger(current: str, candidate: str) -> str:
    return candidate if _STRENGTH[candidate] > _STRENGTH[current] else current
