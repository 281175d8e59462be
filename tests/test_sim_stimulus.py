"""The periodic stimulus: one period of rows plus a length.

A :class:`~repro.sim.stimulus.PeriodicStimulus` stands for the list of
rows it repeats.  These tests pin that contract: the same rows, the same
minimal period (so the vector engine's periodic stop fires on the same
cycle), the same cache fingerprint, and — by hypothesis over random
circuits, on both backends — the same answer from every simulator entry
point, errors included.  They also pin the bytes of three weighted
fingerprints as they were before the type existed, and check that a
paper-scale flow never unrolls a weighted sequence past its period.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.synth import SynthSpec, synthesize
from repro.core.assignment import WeightAssignment
from repro.core.procedure import ProcedureConfig
from repro.core.weight import Weight
from repro.errors import SimulationError
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.runtime.keys import stimulus_fingerprint
from repro.sim import FaultSimulator
from repro.sim.faults import all_faults
from repro.sim.stimulus import PeriodicStimulus, minimal_period, stimulus_period
from repro.tgen.sequence import TestSequence
from repro.util.rng import DeterministicRng
from tests.test_sim_vector_differential import (
    RUN_KWARGS,
    _assert_same_result,
    _outcome,
)

weight_text = st.text(alphabet="01", min_size=1, max_size=9)


class TestContract:
    """The object reads as the rows it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(weight_text, min_size=1, max_size=6),
        length=st.integers(min_value=0, max_value=400),
    )
    def test_weighted_matches_generate(self, texts, length):
        assignment = WeightAssignment.from_strings(texts)
        stimulus = assignment.stimulus(length)
        rows = list(assignment.generate(length).patterns)
        assert len(stimulus) == length
        assert list(stimulus) == rows
        assert [stimulus[u] for u in range(length)] == rows
        assert stimulus.period == minimal_period(rows)
        assert stimulus_period(stimulus) == stimulus_period(rows)
        assert stimulus_fingerprint(stimulus) == stimulus_fingerprint(rows)
        if length:
            assert stimulus[-1] == rows[-1]
        with pytest.raises(IndexError):
            stimulus[length]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=1, max_value=4),
        p0=st.integers(min_value=1, max_value=12),
        length=st.integers(min_value=0, max_value=40),
        ternary=st.booleans(),
    )
    def test_any_rows(self, seed, width, p0, length, ternary):
        """Any rows and length, periods above L/2 and L below the rows
        given included: the period is the window's minimal period."""
        rng = random.Random(seed)
        alphabet = [0, 1, 2] if ternary else [0, 1]
        rows = [[rng.choice(alphabet) for _ in range(width)] for _ in range(p0)]
        if rng.random() < 0.5:
            rows = rows * rng.randint(2, 3)  # a non-primitive period
        stimulus = PeriodicStimulus(rows, length)
        window = [tuple(rows[u % len(rows)]) for u in range(length)]
        assert list(stimulus) == window
        assert stimulus.period == minimal_period(window)
        assert stimulus_fingerprint(stimulus) == stimulus_fingerprint(window)

    @settings(max_examples=100, deadline=None)
    @given(
        texts=st.lists(
            st.one_of(weight_text, st.just("R")), min_size=1, max_size=5
        ),
        length=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_random_weight_rows(self, texts, length, seed):
        """RandomWeight rows: drawn in ``generate``'s order, kept as the
        minimal period of the drawn window."""
        assignment = WeightAssignment.from_strings(texts)
        stimulus = assignment.stimulus(length, DeterministicRng(seed))
        rows = list(assignment.generate(length, DeterministicRng(seed)).patterns)
        assert list(stimulus) == rows
        assert stimulus.period == minimal_period(rows)

    @pytest.mark.parametrize(
        "rows, length",
        [
            ([[0, 1], [1, 3]], 5),
            ([[0, 1], [1]], 4),
            ([[0, "1"]], 3),
        ],
    )
    def test_malformed_rows(self, rows, length):
        """Malformed period rows raise the one line ``TestSequence``
        raises for the rows they stand for."""
        window = [rows[u % len(rows)] for u in range(length)]
        with pytest.raises(SimulationError) as today:
            TestSequence(window)
        with pytest.raises(SimulationError) as raised:
            PeriodicStimulus(rows, length)
        assert str(raised.value) == str(today.value)

    @pytest.mark.parametrize("length", [-1, 1.5, True, "3"])
    def test_bad_length(self, length):
        with pytest.raises(SimulationError, match="non-negative int"):
            PeriodicStimulus([[0]], length)

    def test_length_needs_rows(self):
        with pytest.raises(SimulationError, match="needs rows"):
            PeriodicStimulus([], 3)
        assert len(PeriodicStimulus([], 0)) == 0


#: ``WeightAssignment.from_strings(FINGERPRINTED)`` has g208's ten inputs
#: and period lcm(2, 3, 1, 4, 2, 1, 5, 1, 1, 2) = 60.
FINGERPRINTED = ["01", "001", "1", "0110", "10", "1", "00101", "0", "111", "01"]


class TestFingerprintBytes:
    """Weighted fingerprints keep the bytes they had as row lists, so a
    cache filled before the type existed keeps hitting."""

    @pytest.mark.parametrize(
        "length, digest",
        [
            (512, "187fef51504cfa100c01eb809b1c52433fbe015b864524856cf3dd5b75aab0a7"),
            (2000, "408d6a90a322b1ab7c442e45f7e76ef723a4191e60ab2798517ec7e030e38785"),
            # 2P - 1 = 119 > 100: the window's rows are built.
            (100, "694a782e201af06a9a50e12b4287e31280fa592c5be9783f682c88ee7943763e"),
        ],
    )
    def test_literal_digests(self, length, digest):
        stimulus = WeightAssignment.from_strings(FINGERPRINTED).stimulus(length)
        assert stimulus.period == 60
        assert stimulus_fingerprint(stimulus) == digest


class TestBackendsAgree:
    """Hypothesis: every entry point answers the object as the oracle
    answers the list of rows it stands for, on both backends."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_po=st.integers(min_value=1, max_value=3),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=2, max_value=30),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=60),
    )
    def test_entry_points(
        self, seed, n_pi, n_po, n_ff, n_gates, stim_seed, length
    ):
        n_gates = max(n_gates, n_ff, n_po)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, n_po, n_ff, n_gates, seed=seed)
        )
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        stimuli = []
        for _ in range(3):
            texts = [
                "R" if rng.random() < 0.15 else "".join(
                    rng.choice("01") for _ in range(rng.randint(1, 9))
                )
                for _ in range(n_pi)
            ]
            size = rng.randint(1, length)
            stimuli.append(
                WeightAssignment.from_strings(texts).stimulus(
                    size, DeterministicRng(rng.randint(0, 99))
                )
            )
        # X values and a period above half the length, or longer than it.
        p0 = rng.randint(1, length + 5)
        rows = [[rng.choice([0, 1, 2]) for _ in range(n_pi)] for _ in range(p0)]
        stimuli.append(PeriodicStimulus(rows, length))
        lists = [list(s) for s in stimuli]

        oracle = FaultSimulator(circuit, backend="python")
        first = oracle.run(lists[0], faults)
        sample = list(first.undetected[:8]) + list(first.detected[:1])
        expected = [
            *(
                oracle.run(rows, faults, **kw)
                for rows in lists
                for kw in RUN_KWARGS
            ),
            *oracle.run_batch(lists, faults),
            *oracle.run_batch(lists, faults, stop_when_all_detected=False),
        ]
        verdicts = [oracle.detects_any(rows, sample) for rows in lists]
        responses = oracle.output_responses(lists[-1], faults)

        for backend in ("python", "vector"):
            sim = FaultSimulator(circuit, backend=backend)
            got = [
                *(
                    sim.run(s, faults, **kw)
                    for s in stimuli
                    for kw in RUN_KWARGS
                ),
                *sim.run_batch(stimuli, faults),
                *sim.run_batch(stimuli, faults, stop_when_all_detected=False),
            ]
            for a, b in zip(got, expected, strict=True):
                _assert_same_result(a, b, backend)
            assert [sim.detects_any(s, sample) for s in stimuli] == verdicts
            assert sim.detects_any_batch(stimuli, sample) == verdicts
            assert sim.output_responses(stimuli[-1], faults) == responses

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p0=st.integers(min_value=1, max_value=6),
        length=st.integers(min_value=1, max_value=30),
        wider=st.booleans(),
    )
    def test_wrong_width_error_parity(self, seed, p0, length, wider):
        """Rows of the wrong width for the circuit: every entry point on
        both backends raises the oracle's one line for the row list."""
        circuit = synthesize(SynthSpec("hyp", 3, 2, 3, 12, seed=seed))
        faults = all_faults(circuit)
        width = 4 if wider else 2
        rng = random.Random(seed)
        rows = [[rng.randint(0, 1) for _ in range(width)] for _ in range(p0)]
        stimulus = PeriodicStimulus(rows, length)
        window = list(stimulus)

        def calls(sim, s):
            return [
                *(
                    _outcome(lambda kw=kw: sim.run(s, faults, **kw))
                    for kw in RUN_KWARGS
                ),
                _outcome(lambda: sim.run_batch([s, s], faults)),
                _outcome(lambda: sim.detects_any(s, faults[:5])),
                _outcome(lambda: sim.detects_any_batch([s, s], faults[:5])),
                _outcome(lambda: sim.output_responses(s, faults[:5])),
            ]

        today = calls(FaultSimulator(circuit, backend="python"), window)
        assert all(kind == "error" for kind, _ in today)
        for backend in ("python", "vector"):
            sim = FaultSimulator(circuit, backend=backend)
            assert calls(sim, stimulus) == today, backend


def test_flow_never_unrolls_a_weighted_sequence(monkeypatch):
    """A g208 flow at L_G = 2000 builds every weighted stimulus from one
    period: each weight is expanded to exactly the period of the
    stimulus its rows go into, never to L_G rows."""
    pending = []
    built = []
    expand = Weight.expand
    init = PeriodicStimulus.__init__

    def counted_expand(self, length, rng=None):
        pending.append(length)
        return expand(self, length, rng)

    def counted_init(self, rows, length):
        init(self, rows, length)
        built.append((tuple(pending), self.period, length))
        pending.clear()

    monkeypatch.setattr(Weight, "expand", counted_expand)
    monkeypatch.setattr(PeriodicStimulus, "__init__", counted_init)
    flow = run_full_flow(
        "g208", FlowConfig(seed=1, procedure=ProcedureConfig(l_g=2000))
    )
    assert flow.procedure.omega and built and not pending
    for lengths, period, length in built:
        assert length == 2000
        assert lengths and set(lengths) == {period}
        assert 2 * period - 1 <= length
