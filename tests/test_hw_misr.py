"""Tests for the MISR: software model, netlist equivalence, and
signature-based fault grading."""

from __future__ import annotations

import pytest

from repro.core import ProcedureConfig, select_weight_assignments
from repro.errors import FaultModelError, HardwareError
from repro.hw import Misr, signature_coverage, synthesize_misr
from repro.sim import Fault, LogicSimulator, V0, V1
from repro.util.rng import DeterministicRng


class TestMisrModel:
    def test_deterministic(self):
        a = Misr(8, 3)
        b = Misr(8, 3)
        vectors = [(1, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert a.run(vectors) == b.run(vectors)

    def test_order_sensitivity(self):
        a = Misr(8, 2)
        b = Misr(8, 2)
        a.run([(1, 0), (0, 1)])
        b.run([(0, 1), (1, 0)])
        assert a.signature != b.signature

    def test_single_bit_difference_changes_signature(self):
        rng = DeterministicRng(9)
        vectors = [tuple(rng.bit() for _ in range(4)) for _ in range(30)]
        base = Misr(12, 4).run(vectors)
        flipped = [list(v) for v in vectors]
        flipped[7][2] ^= 1
        assert Misr(12, 4).run([tuple(v) for v in flipped]) != base

    def test_width_validation(self):
        with pytest.raises(HardwareError):
            Misr(4, 5)  # more channels than register bits

    def test_non_binary_rejected(self):
        misr = Misr(8, 1)
        with pytest.raises(HardwareError):
            misr.absorb((2,))

    def test_wrong_channel_count_rejected(self):
        misr = Misr(8, 2)
        with pytest.raises(HardwareError):
            misr.absorb((1,))

    def test_aliasing_probability(self):
        assert Misr(16, 4).aliasing_probability() == pytest.approx(2**-16)

    def test_zero_stream_keeps_zero_state(self):
        misr = Misr(8, 2, seed=0)
        misr.run([(0, 0)] * 20)
        assert misr.signature == 0


class TestMisrNetlist:
    @pytest.mark.parametrize("width,n_inputs", [(4, 2), (8, 3), (8, 8)])
    def test_hardware_matches_software(self, width, n_inputs):
        rng = DeterministicRng(width * 100 + n_inputs)
        vectors = [
            tuple(rng.bit() for _ in range(n_inputs)) for _ in range(25)
        ]
        golden = Misr(width, n_inputs)
        golden.run(vectors)

        circuit = synthesize_misr(width, n_inputs)
        stimulus = [(V1,) + (0,) * n_inputs]
        stimulus += [(V0,) + v for v in vectors]
        stimulus += [(V0,) + (0,) * n_inputs]  # flush cycle: state visible
        trace = LogicSimulator(circuit).run(stimulus)
        # The signature after the last absorb appears one cycle later,
        # but that extra cycle also absorbed the zero vector; compare
        # against a golden that absorbed it too.
        golden.absorb((0,) * n_inputs)
        hw = 0
        for k, value in enumerate(trace.outputs[-1]):
            assert value in (V0, V1)
            hw |= value << k
        # trace.outputs[-1] shows state at the flush cycle start == after
        # the last data absorb; the flush absorb lands after the trace.
        sw_before_flush = Misr(width, n_inputs)
        sw_before_flush.run(vectors)
        assert hw == sw_before_flush.signature

    def test_reset_clears(self):
        circuit = synthesize_misr(4, 1)
        trace = LogicSimulator(circuit).run([(V1, 1), (V0, 0)])
        assert trace.outputs[1] == (V0, V0, V0, V0)


class TestSignatureCoverage:
    def test_s27_signature_grading(self, s27, s27_faults, paper_t):
        procedure = select_weight_assignments(
            s27, paper_t, s27_faults, ProcedureConfig(l_g=64)
        )
        stimuli = [
            entry.assignment.generate(procedure.l_g).patterns
            for entry in procedure.omega
        ]
        grading = signature_coverage(s27, stimuli, list(s27_faults))
        total = (
            len(grading.detected)
            + len(grading.aliased)
            + len(grading.unknown)
            + len(grading.undetected)
        )
        assert total == 32
        # Signature detection can only lose faults vs per-cycle
        # observation, never gain.
        assert grading.coverage <= 1.0
        assert len(grading.detected) >= 1

    def test_signature_weaker_or_equal_to_percycle(self, s27, s27_faults, paper_t):
        from repro.sim import FaultSimulator

        stimuli = [paper_t.patterns]
        grading = signature_coverage(s27, stimuli, list(s27_faults))
        percycle = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
        assert len(grading.detected) <= len(percycle.detection_time)
        # Every signature-detected fault is per-cycle detected.
        assert set(grading.detected) <= set(percycle.detection_time)

    def test_unknown_fault_net_rejected(self, s27, paper_t):
        with pytest.raises(FaultModelError, match="nope"):
            signature_coverage(s27, [paper_t.patterns], [Fault("nope", 0)])
