"""Tests for the bit-parallel sequential fault simulator.

Includes the golden cross-check: single-fault simulation must agree
with brute-force simulation of an explicitly mutated circuit on the
reference logic simulator.
"""

from __future__ import annotations

import pytest

from repro.circuit import Circuit, CircuitBuilder
from repro.circuit.gates import Gate, GateType
from repro.errors import SimulationError
from repro.sim import (
    Fault,
    FaultSimulator,
    V0,
    V1,
    VX,
    all_faults,
    collapse_faults,
    compile_circuit,
    detection_times,
)
from repro.sim.logicsim import _reference_run
from repro.util.rng import DeterministicRng


def _mutate(circuit: Circuit, fault: Fault) -> Circuit:
    """Build a faulty copy of ``circuit`` with ``fault`` hard-wired.

    Stem fault: the faulty constant replaces the net for all sinks and
    the POs.  Branch fault: only the one gate pin is rewired.
    """
    const_name = "__fault_const"
    const = Gate(const_name, GateType.CONST1 if fault.stuck else GateType.CONST0, ())
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


def _detects_brute_force(circuit, fault, stimulus):
    """First detection time via explicit faulty-circuit simulation.

    Runs on the interpreted scalar reference, not the compiled logic
    simulator, so the oracle shares no generated gate code with the
    vector fault kernel it checks.
    """
    good = _reference_run(compile_circuit(circuit), stimulus)
    bad = _reference_run(compile_circuit(_mutate(circuit, fault)), stimulus)
    for u, (g_out, b_out) in enumerate(zip(good.outputs, bad.outputs)):
        for g, b in zip(g_out, b_out):
            if g in (V0, V1) and b in (V0, V1) and g != b:
                return u
    return None


class TestAgainstBruteForce:
    def test_s27_all_faults_match(self, s27, paper_t):
        faults = all_faults(s27)
        result = FaultSimulator(s27).run(paper_t.patterns, faults)
        for fault in faults:
            expected = _detects_brute_force(s27, fault, paper_t.patterns)
            actual = result.detection_time.get(fault)
            assert actual == expected, f"{fault} expected {expected} got {actual}"

    def test_random_circuit_random_stimulus(self):
        from repro.circuit.synth import SynthSpec, synthesize

        circuit = synthesize(SynthSpec("t", 4, 2, 3, 25, seed=77))
        rng = DeterministicRng(5)
        stimulus = [rng.bits(4) for _ in range(40)]
        faults = collapse_faults(circuit)
        result = FaultSimulator(circuit).run(stimulus, faults)
        for fault in faults[:40]:
            expected = _detects_brute_force(circuit, fault, stimulus)
            assert result.detection_time.get(fault) == expected


class TestResult:
    def test_coverage(self, s27, s27_faults, paper_t):
        result = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
        assert result.coverage == 1.0
        assert result.undetected == ()
        assert result.n_faults == 32

    def test_detected_sorted_by_time(self, s27, s27_faults, paper_t):
        result = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
        times = [result.detection_time[f] for f in result.detected]
        assert times == sorted(times)

    def test_empty_fault_list(self, s27, paper_t):
        result = FaultSimulator(s27).run(paper_t.patterns, [])
        assert result.coverage == 1.0
        assert result.n_faults == 0

    def test_empty_stimulus(self, s27, s27_faults):
        result = FaultSimulator(s27).run([], s27_faults)
        assert len(result.undetected) == 32

    def test_short_stimulus_partial_detection(self, s27, s27_faults, paper_t):
        full = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
        short = FaultSimulator(s27).run(paper_t.patterns[:3], s27_faults)
        assert set(short.detection_time) == {
            f for f, u in full.detection_time.items() if u <= 2
        }


class TestGrouping:
    def test_more_than_63_faults(self, g208):
        # g208 has hundreds of faults -> multiple groups; detection
        # results must be identical to single-group runs.
        faults = collapse_faults(g208)[:100]
        rng = DeterministicRng(3)
        stimulus = [rng.bits(len(g208.inputs)) for _ in range(60)]
        whole = FaultSimulator(g208).run(stimulus, faults)
        piecewise = {}
        sim = FaultSimulator(g208)
        for fault in faults:
            piecewise.update(sim.run(stimulus, [fault]).detection_time)
        assert whole.detection_time == piecewise


class TestDetectsAny:
    def test_fires_on_detectable(self, s27, s27_faults, paper_t):
        assert FaultSimulator(s27).detects_any(paper_t.patterns, s27_faults)

    def test_silent_on_empty_stimulus(self, s27, s27_faults):
        assert not FaultSimulator(s27).detects_any([], s27_faults)

    def test_silent_on_all_x_inputs(self, s27, s27_faults):
        stimulus = [(VX, VX, VX, VX)] * 5
        assert not FaultSimulator(s27).detects_any(stimulus, s27_faults)


class TestRecordLines:
    def test_lines_superset_of_outputs(self, s27, s27_faults, paper_t):
        result = FaultSimulator(s27).run(
            paper_t.patterns, s27_faults, record_lines=True
        )
        # A detected fault must show a discrepancy on at least one line
        # (the PO it was detected at).
        for fault in result.detected:
            assert result.lines[fault], f"{fault} detected but no lines"

    def test_undetected_fault_lines_exclude_pos(self, settable_circuit):
        # A fault whose effect never reaches a PO as a binary
        # discrepancy must not list POs.
        faults = collapse_faults(settable_circuit)
        stimulus = [(V0, V0)] * 4
        result = FaultSimulator(settable_circuit).run(
            stimulus, faults, record_lines=True
        )
        for fault in result.undetected:
            for po in settable_circuit.outputs:
                assert po not in result.lines[fault]


class TestValidation:
    def test_wrong_pattern_width(self, s27, s27_faults):
        with pytest.raises(SimulationError):
            FaultSimulator(s27).run([(V0, V1)], s27_faults)

    def test_invalid_fault_rejected(self, s27):
        from repro.errors import FaultModelError

        with pytest.raises(FaultModelError):
            FaultSimulator(s27).run([], [Fault("nope", 0)])


class TestBranchFaults:
    def test_branch_fault_differs_from_stem(self, s27, paper_t):
        # G8 fans out to G15 and G16; its stem fault and each branch
        # fault are distinct faults with potentially different times.
        stem = Fault("G8", 1)
        br15 = Fault("G8", 1, gate="G15", pin=1)
        br16 = Fault("G8", 1, gate="G16", pin=1)
        result = FaultSimulator(s27).run(paper_t.patterns, [stem, br15, br16])
        # brute-force agreement (already covered above) plus: stem
        # detection implies at least one branch behaves identically or
        # earlier is not required — just check all simulated.
        assert result.n_faults == 3

    def test_dff_input_branch_fault(self):
        # Fault on the D-pin branch of a flip-flop.
        b = CircuitBuilder("c")
        b.input("a")
        b.buf("d", "a")
        b.dff("q", "d")
        b.and_("y", "d", "q")
        b.output("y")
        circuit = b.build()
        fault = Fault("d", 0, gate="q", pin=0)
        stimulus = [(V1,)] * 4
        result = FaultSimulator(circuit).run(stimulus, [fault])
        expected = _detects_brute_force(circuit, fault, stimulus)
        assert result.detection_time.get(fault) == expected


class TestDetectionTimesHelper:
    def test_matches_run(self, s27, s27_faults, paper_t):
        d1 = detection_times(s27, paper_t.patterns, s27_faults)
        d2 = FaultSimulator(s27).run(paper_t.patterns, s27_faults).detection_time
        assert d1 == d2
