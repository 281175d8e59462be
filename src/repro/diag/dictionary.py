"""Fault dictionaries and syndrome-based diagnosis.

A *syndrome* is the set of ``(time unit, output index)`` positions at
which a faulty machine's response provably differs from the fault-free
response (binary vs complementary binary — the same criterion the
detection machinery uses).  Structurally equivalent faults share a
syndrome by construction, so diagnosis resolves down to equivalence
classes, exactly as physical diagnosis theory predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.sim.compile import CompiledCircuit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.values import V0, V1, VX, Value

Syndrome = FrozenSet[Tuple[int, int]]
"""Failing positions: ``(time unit, primary output index)``."""


@dataclass(frozen=True)
class Diagnosis:
    """Ranked diagnosis outcome.

    Attributes
    ----------
    exact:
        Faults whose dictionary syndrome equals the observed one.
    ranked:
        All candidate faults with a nonzero match score, best first,
        as ``(fault, score)`` with Jaccard similarity in [0, 1].
    """

    exact: Tuple[Fault, ...]
    ranked: Tuple[Tuple[Fault, float], ...]

    @property
    def best(self) -> Fault | None:
        """The top candidate (None when nothing matches at all)."""
        if self.exact:
            return self.exact[0]
        return self.ranked[0][0] if self.ranked else None


class FaultDictionary:
    """Precomputed syndromes of a fault list under one test sequence."""

    def __init__(self, syndromes: Dict[Fault, Syndrome]) -> None:
        self._syndromes = dict(syndromes)

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        stimulus: Sequence[Sequence[Value]],
        faults: Sequence[Fault],
        compiled: CompiledCircuit | None = None,
    ) -> "FaultDictionary":
        """Simulate every fault and record its full syndrome."""
        good_rows, diffs = FaultSimulator(circuit, compiled).output_responses(
            stimulus, faults
        )
        return cls(
            {
                fault: frozenset(
                    (u, po)
                    for (u, po), value in diff.items()
                    if value != VX and good_rows[u][po] != VX
                )
                for fault, diff in diffs.items()
            }
        )

    @property
    def faults(self) -> Tuple[Fault, ...]:
        """The dictionary's fault list."""
        return tuple(self._syndromes)

    def syndrome(self, fault: Fault) -> Syndrome:
        """The stored syndrome of ``fault``."""
        return self._syndromes[fault]

    def equivalence_groups(self) -> List[Tuple[Fault, ...]]:
        """Faults indistinguishable under this sequence (same syndrome),
        excluding undetected faults (empty syndrome)."""
        by_syndrome: Dict[Syndrome, List[Fault]] = {}
        for fault, syndrome in self._syndromes.items():
            if syndrome:
                by_syndrome.setdefault(syndrome, []).append(fault)
        return [tuple(sorted(group)) for group in by_syndrome.values()]

    def diagnose(self, observed: Syndrome) -> Diagnosis:
        """Locate the fault(s) matching an observed failing syndrome."""
        exact = []
        scored: List[Tuple[Fault, float]] = []
        for fault, syndrome in self._syndromes.items():
            if not syndrome and not observed:
                continue
            union = len(syndrome | observed)
            inter = len(syndrome & observed)
            if union == 0 or inter == 0:
                continue
            score = inter / union
            if syndrome == observed:
                exact.append(fault)
            scored.append((fault, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return Diagnosis(exact=tuple(sorted(exact)), ranked=tuple(scored))


def observed_syndrome(
    circuit: Circuit,
    faulty_circuit: Circuit,
    stimulus: Sequence[Sequence[Value]],
) -> Syndrome:
    """The syndrome a tester would observe from a defective device.

    Simulates the good and "physically defective" circuits and records
    every position where both respond with definite, different values.
    """
    good = LogicSimulator(circuit).run(stimulus)
    bad = LogicSimulator(faulty_circuit).run(stimulus)
    failing = set()
    for u, (g_row, b_row) in enumerate(zip(good.outputs, bad.outputs)):
        for po, (g, b) in enumerate(zip(g_row, b_row)):
            if g in (V0, V1) and b in (V0, V1) and g != b:
                failing.add((u, po))
    return frozenset(failing)
