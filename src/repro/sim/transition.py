"""Transition (gross-delay) fault simulation.

The paper's references [11] and [15] extend weighted testing to *delay
faults*, which need two-pattern tests; the paper notes its subsequence
weights are "a more natural extension" of those 5-weight schemes (a
weight ``01`` is exactly the ``w01`` rising weight of [11]).  This
module adds the fault model that makes the claim measurable: gross-delay
transition faults, where a slow-to-rise (slow-to-fall) net lags one
clock behind on rising (falling) transitions.

Model (standard single-fault gross-delay): the faulty machine's value
at the fault site is

    slow-to-rise:  v_f(t) = d(t) AND d(t-1)
    slow-to-fall:  v_f(t) = d(t) OR  d(t-1)

where ``d`` is the site's *driving* value in the faulty machine — not
the fault-free value: once fault effects circulate through the state
registers they can re-enter the site's own input cone, so ``d`` must be
computed in the faulty machine itself.

Simulation therefore runs each cycle in **two passes** on the stuck-at
group engine: pass 1 evaluates the cycle with no forcing to obtain each
faulty machine's natural site value ``d(t)`` (the state snapshot is
then restored), pass 2 re-evaluates with the per-bit forcing words
``f(d(t), d(t-1))`` applied at the sites (ternary AND/OR, with an
explicit X-force when the combination is unknown).  This is exact
under the single-fault gross-delay model; the test suite checks it
against an independent stepwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faultsim import GROUP_FAULTS, FaultSimResult, _GroupSim
from repro.sim.values import V0, V1, VX, Value


@dataclass(frozen=True)
class TransitionFault:
    """A gross-delay transition fault on a net's stem.

    Attributes
    ----------
    net:
        The slow net.
    slow_to:
        1 for slow-to-rise, 0 for slow-to-fall.
    """

    net: str
    slow_to: int

    def __post_init__(self) -> None:
        if self.slow_to not in (0, 1):
            raise FaultModelError(
                f"slow_to must be 0 (fall) or 1 (rise), got {self.slow_to!r}"
            )

    @property
    def sort_key(self) -> tuple:
        return (self.net, self.slow_to)

    def __lt__(self, other: "TransitionFault") -> bool:
        if not isinstance(other, TransitionFault):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        kind = "STR" if self.slow_to else "STF"
        return f"{self.net}/{kind}"


def all_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    """Both transition faults on every non-constant net."""
    faults = []
    for net, gate in circuit.gates.items():
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            continue
        faults.append(TransitionFault(net, 1))
        faults.append(TransitionFault(net, 0))
    return sorted(faults)


def _forced_value(fault: TransitionFault, current: Value, previous: Value) -> Value:
    """The faulty site value under the gross-delay model (ternary)."""
    if fault.slow_to == 1:  # slow-to-rise: AND of consecutive values
        if current == V0 or previous == V0:
            return V0
        if current == V1 and previous == V1:
            return V1
        return VX
    # slow-to-fall: OR of consecutive values
    if current == V1 or previous == V1:
        return V1
    if current == V0 and previous == V0:
        return V0
    return VX


class TransitionFaultSimulator:
    """Bit-parallel sequential transition fault simulator."""

    def __init__(self, circuit: Circuit, compiled: CompiledCircuit | None = None) -> None:
        self.circuit = circuit
        self.comp = compiled or compile_circuit(circuit)

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[TransitionFault],
    ) -> FaultSimResult:
        """Simulate ``stimulus`` against the transition ``faults``.

        Detection: binary good PO value vs the complementary binary
        faulty value, as for stuck-at faults.
        """
        for fault in faults:
            if fault.net not in self.circuit:
                raise FaultModelError(f"no net named {fault.net!r}")

        detection: Dict[TransitionFault, int] = {}
        for start in range(0, len(faults), GROUP_FAULTS):
            group = list(faults[start : start + GROUP_FAULTS])
            self._run_group(stimulus, group, detection)
        undetected = tuple(f for f in faults if f not in detection)
        return FaultSimResult(
            detection_time=detection,
            undetected=undetected,
            n_faults=len(faults),
        )

    def detects_any(
        self,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[TransitionFault],
    ) -> bool:
        """True iff ``stimulus`` detects at least one of ``faults``.

        Mirrors :meth:`FaultSimulator.detects_any` so transition faults
        can drive the weight-selection procedure's screening shortcut.
        """
        result = self.run(stimulus, faults)
        return bool(result.detection_time)

    def _run_group(self, stimulus, group, detection) -> None:
        comp = self.comp
        flop_pos = {name: i for i, name in enumerate(self.circuit.flops)}
        # Register every site as a stuck-at-0 stem "placeholder": this
        # creates the mutable force slots inside the group engine; the
        # per-cycle loop rewrites them before each pass-2 step.
        from repro.sim.faults import Fault as StuckFault

        placeholders = [StuckFault(f.net, 0) for f in group]
        sim = _GroupSim(comp, flop_pos, placeholders)
        slot_of_net = sim.stem_slots({comp.index[f.net] for f in group})

        bit_of_fault = {f: 1 << (k + 1) for k, f in enumerate(group)}
        site_index = {f: comp.index[f.net] for f in group}
        site_indices = sorted(set(site_index.values()))
        # Previous-cycle *driver* values per site: (ones, zeros) words.
        prev_driver: Dict[int, Tuple[int, int]] = {
            idx: (0, 0) for idx in site_indices
        }

        for u, pattern in enumerate(stimulus):
            # Pass 1: natural (unforced) evaluation to read the faulty
            # machines' driving values at every site.
            for slot in slot_of_net.values():
                slot[0] = slot[1] = slot[2] = 0
            snap = sim.snapshot()
            sim.step(pattern)
            driver = {
                idx: (sim.ones[idx], sim.zeros[idx]) for idx in site_indices
            }
            sim.restore(snap)

            # Pass 2: force each fault bit to f(d(t), d(t-1)).
            for fault in group:
                idx = site_index[fault]
                bit = bit_of_fault[fault]
                d_o, d_z = driver[idx]
                p_o, p_z = prev_driver[idx] if u > 0 else (0, 0)
                current = V1 if d_o & bit else V0 if d_z & bit else VX
                previous = V1 if p_o & bit else V0 if p_z & bit else VX
                value = _forced_value(fault, current, previous)
                if value == VX:
                    slot_of_net[idx][2] |= bit
                else:
                    slot_of_net[idx][value] |= bit
            prev_driver = driver

            newly = sim.step(pattern)
            while newly:
                low = newly & -newly
                newly ^= low
                fault = group[low.bit_length() - 2]
                detection[fault] = u
