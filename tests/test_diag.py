"""Tests for the fault-dictionary diagnosis layer."""

from __future__ import annotations

import pytest

from repro.circuit.gates import Gate, GateType
from repro.circuit.netlist import Circuit
from repro.diag import FaultDictionary, observed_syndrome
from repro.errors import FaultModelError
from repro.sim import Fault, FaultSimulator, collapse_faults


def _mutate(circuit: Circuit, fault: Fault) -> Circuit:
    """Hard-wire ``fault`` into a copy of the circuit."""
    const_name = "__fc"
    const = Gate(
        const_name, GateType.CONST1 if fault.stuck else GateType.CONST0, ()
    )
    gates = []
    for net, gate in circuit.gates.items():
        fanins = list(gate.fanins)
        for pin in range(len(fanins)):
            if fault.is_branch:
                if net == fault.gate and pin == fault.pin:
                    fanins[pin] = const_name
            elif fanins[pin] == fault.net:
                fanins[pin] = const_name
        gates.append(Gate(net, gate.gtype, tuple(fanins)))
    gates.append(const)
    outputs = [
        const_name if (not fault.is_branch and out == fault.net) else out
        for out in circuit.outputs
    ]
    return Circuit(circuit.name + "_faulty", gates, outputs)


@pytest.fixture(scope="module")
def s27_dictionary(request):
    s27 = request.getfixturevalue("s27")
    paper_t = request.getfixturevalue("paper_t")
    faults = collapse_faults(s27)
    return FaultDictionary.build(s27, paper_t.patterns, faults)


class TestDictionary:
    def test_detected_faults_have_syndromes(self, s27, s27_faults, paper_t, s27_dictionary):
        detected = FaultSimulator(s27).run(paper_t.patterns, s27_faults).detected
        for fault in detected:
            assert s27_dictionary.syndrome(fault), fault

    def test_syndrome_first_failure_is_detection_time(
        self, s27, s27_faults, paper_t, s27_dictionary
    ):
        times = FaultSimulator(s27).run(paper_t.patterns, s27_faults).detection_time
        for fault, u_det in times.items():
            first = min(u for u, _po in s27_dictionary.syndrome(fault))
            assert first == u_det

    def test_equivalence_groups_partition_detected(self, s27_dictionary):
        groups = s27_dictionary.equivalence_groups()
        members = [f for g in groups for f in g]
        assert len(members) == len(set(members))

    def test_diagnose_injected_faults(self, s27, s27_faults, paper_t, s27_dictionary):
        # Inject each of several faults physically, observe the tester
        # syndrome, and require diagnosis to name the true fault exactly
        # (up to dictionary equivalence).
        diagnosed = 0
        for fault in s27_faults[:10]:
            syndrome = observed_syndrome(s27, _mutate(s27, fault), paper_t.patterns)
            if not syndrome:
                continue
            result = s27_dictionary.diagnose(syndrome)
            assert fault in result.exact, fault
            diagnosed += 1
        assert diagnosed >= 8

    def test_best_of_empty_is_none(self, s27_dictionary):
        result = s27_dictionary.diagnose(frozenset())
        assert result.best is None

    def test_partial_syndrome_ranks_superset_fault(
        self, s27, s27_faults, paper_t, s27_dictionary
    ):
        # Drop one failing position from a true syndrome: the true
        # fault should still rank at the top.
        fault = next(
            f for f in s27_faults if len(s27_dictionary.syndrome(f)) >= 3
        )
        full = set(s27_dictionary.syndrome(fault))
        partial = frozenset(sorted(full)[:-1])
        result = s27_dictionary.diagnose(partial)
        top_faults = [f for f, _s in result.ranked[:3]]
        assert fault in top_faults

    def test_faults_listing(self, s27_faults, s27_dictionary):
        assert set(s27_dictionary.faults) == set(s27_faults)

    def test_unknown_fault_net_rejected(self, s27, paper_t):
        with pytest.raises(FaultModelError, match="nope"):
            FaultDictionary.build(s27, paper_t.patterns, [Fault("nope", 0)])
