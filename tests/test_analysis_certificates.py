"""Certificates vs. the oracle: no certified fault is ever detected.

This is the acceptance suite for the proved-untestable report:

* every certificate the analysis emits passes the independent
  :func:`check_certificate` re-derivation;
* the bit-parallel fault simulator — the oracle — never detects a
  certified fault, under the flow's own sequences, under random and
  weighted stimuli, and (a hypothesis property) on random synthesized
  circuits under X-heavy ternary stimuli on both backends;
* the report is only a report: full-flow outputs are byte-identical
  with ``static_prune`` on and off, apart from the report itself.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static import analyze, check_certificate
from repro.circuit.synth import SynthSpec, synthesize
from repro.flows import FlowConfig, run_full_flow
from repro.core import ProcedureConfig
from repro.sim import FaultSimulator, V0, V1, VX, all_faults, collapse_faults
from repro.sim.faults import FaultPruner, PruneReport, fault_name
from repro.util.rng import DeterministicRng

CIRCUITS = ("s27", "g208")


@pytest.fixture(scope="module", params=CIRCUITS)
def analyzed(request):
    from repro.circuit import load_circuit

    circuit = load_circuit(request.param)
    faults = all_faults(circuit)
    return circuit, faults, analyze(circuit, faults=faults)


def _stimuli(circuit, cycles=64):
    """A battery of stimulus regimes for the oracle cross-check."""
    n = len(circuit.inputs)
    rng = DeterministicRng(11)
    random = [rng.bits(n) for _ in range(cycles)]
    biased = [
        tuple(1 if rng.random() < 0.8 else 0 for _ in range(n))
        for _ in range(cycles)
    ]
    with_x = [
        tuple(VX if rng.random() < 0.2 else rng.bit() for _ in range(n))
        for _ in range(cycles)
    ]
    return {"random": random, "biased": biased, "with_x": with_x}


def _some_certificate(analyzed):
    _circuit, _faults, analysis = analyzed
    if not analysis.certificates:
        pytest.skip("circuit has no certified-untestable faults")
    return next(iter(analysis.certificates.values()))


class TestCertificatesCheck:
    def test_every_certificate_validates(self, analyzed):
        circuit, _faults, analysis = analyzed
        if circuit.name == "g208":
            # The paper benchmark is known to contain redundancy; an
            # empty table here would mean the prover regressed.
            assert analysis.certificates
        for cert in analysis.certificates.values():
            assert check_certificate(circuit, cert), cert.to_dict()

    def test_tampered_certificate_rejected(self, analyzed):
        circuit, _faults, _analysis = analyzed
        cert = _some_certificate(analyzed)
        flipped = dataclasses.replace(
            cert, fault=dataclasses.replace(cert.fault, stuck=1 - cert.fault.stuck)
        )
        assert not check_certificate(circuit, flipped)

    def test_wrong_circuit_rejected(self, analyzed):
        from repro.circuit import load_circuit

        circuit, _faults, _analysis = analyzed
        other = load_circuit("s27" if circuit.name != "s27" else "g208")
        cert = _some_certificate(analyzed)
        assert not check_certificate(other, cert)

    def test_round_trip_through_dict(self, analyzed):
        from repro.analysis.static import Certificate

        circuit, _faults, analysis = analyzed
        for cert in analysis.certificates.values():
            rebuilt = Certificate.from_dict(cert.to_dict())
            assert check_certificate(circuit, rebuilt)


class TestOracleNeverDetects:
    def test_random_and_weighted_stimuli(self, analyzed):
        circuit, faults, analysis = analyzed
        certified = [
            f for f in faults if fault_name(f) in analysis.certificates
        ]
        sim = FaultSimulator(circuit)
        for regime, stimulus in _stimuli(circuit).items():
            result = sim.run(stimulus, certified)
            assert result.detection_time == {}, (
                f"{circuit.name}/{regime}: certified fault detected"
            )

    def test_flow_sequence(self, analyzed):
        circuit, faults, analysis = analyzed
        certified = [
            f for f in faults if fault_name(f) in analysis.certificates
        ]
        flow = run_full_flow(
            circuit,
            FlowConfig(seed=2, tgen_max_len=300, compaction_sims=0,
                       procedure=ProcedureConfig(l_g=64)),
        )
        result = FaultSimulator(circuit).run(flow.sequence, certified)
        assert result.detection_time == {}

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_circuits_x_heavy_stimuli(self, seed, data):
        circuit = synthesize(SynthSpec("prop", 4, 2, 3, 24, seed=seed))
        faults = all_faults(circuit)
        analysis = analyze(circuit, faults=faults)
        certified = [
            f for f in faults if fault_name(f) in analysis.certificates
        ]
        # Two of every four values are X: the ternary corner cases the
        # value-set proofs must cover, not just binary walks.
        value = st.sampled_from((V0, V1, VX, VX))
        row = st.lists(
            value, min_size=len(circuit.inputs), max_size=len(circuit.inputs)
        )
        stimuli = data.draw(
            st.lists(st.lists(row, min_size=1, max_size=24), min_size=2,
                     max_size=3)
        )
        for backend in ("python", "vector"):
            sim = FaultSimulator(circuit, backend=backend)
            for stimulus in stimuli:
                assert sim.run(stimulus, certified).detection_time == {}
                assert sim.detects_any(stimulus, certified) is False
            assert not any(sim.detects_any_batch(stimuli, certified))


class TestPruneReport:
    def test_prune_report_shape(self, analyzed):
        circuit, faults, analysis = analyzed
        report = FaultPruner(circuit, analysis=analysis).report(faults)
        assert isinstance(report, PruneReport)
        assert report.n_faults == len(faults)
        assert report.n_pruned == len(analysis.certificates)
        assert report.n_kept + report.n_pruned == report.n_faults
        assert [name for name, _ in report.pruned] == sorted(
            analysis.certificates
        )
        payload = report.to_payload()
        assert payload["n_faults"] == len(faults)
        assert len(payload["faults"]) == report.n_pruned


class TestFlowByteIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        cfg = dict(seed=3, tgen_max_len=300, compaction_sims=0,
                   procedure=ProcedureConfig(l_g=64))
        off = run_full_flow("g208", FlowConfig(static_prune=False, **cfg))
        on = run_full_flow("g208", FlowConfig(static_prune=True, **cfg))
        return off, on

    def test_identical_results(self, pair):
        off, on = pair
        assert on.table6 == off.table6
        assert on.sequence == off.sequence
        assert on.procedure.omega == off.procedure.omega
        assert [a.weights for a in on.reverse_order.kept] == [
            a.weights for a in off.reverse_order.kept
        ]

    def test_prune_report_only_on(self, pair):
        off, on = pair
        assert off.pruned is None
        assert on.pruned is not None
        assert on.pruned.n_pruned > 0
        # Collapsed-universe faults only; every entry carries a kind.
        universe = {
            fault_name(f) for f in collapse_faults(off.circuit)
        }
        for name, kind in on.pruned.pruned:
            assert name in universe
            assert kind

    def test_serve_payload_gains_untestable_section(self, pair):
        from repro.serve.results import flow_result_payload

        off, on = pair
        p_off = flow_result_payload(off)
        p_on = flow_result_payload(on)
        assert "proved_untestable" not in p_off
        section = p_on.pop("proved_untestable")
        assert section["n_pruned"] == on.pruned.n_pruned
        assert p_on == p_off
