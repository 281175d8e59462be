"""Cross-backend differential tests for the word-packed fault simulator.

The vector backend (:mod:`repro.sim.vector`) is a drop-in replacement
for the pure-Python oracle: same :class:`FaultSimResult`, same
detection times, same recorded discrepancy lines, for every circuit,
fault list and ternary stimulus.  These tests enforce that contract —
by hypothesis over random synthetic circuits, over the bundled
``.bench`` fixtures and library circuits, with pruned configurations,
at the word-width boundaries of the lane packing, for fault lists that
share one compiled step function, for the consumers of
:meth:`FaultSimulator.output_responses` (MISR grading and fault
dictionaries), for periodic (weighted) stimuli, which the vector
engine stops simulating once their state repeats, and for fault lists
that start on their circuit's covering step code and switch to their
own layout's code mid-call.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import parse_bench
from repro.circuit.library import load_circuit
from repro.circuit.synth import SynthSpec, synthesize
from repro.core.assignment import WeightAssignment
from repro.core.procedure import ProcedureConfig
from repro.diag import FaultDictionary
from repro.errors import SimulationError
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.hw import signature_coverage
from repro.sim import (
    VX,
    FaultSimulator,
    IncrementalFaultSimulator,
    LogicSimulator,
    collapse_faults,
    compile_circuit,
)
from repro.sim.faults import FaultPruner, all_faults
from repro.sim.faultsim import GROUP_FAULTS
from repro.sim.vector import WORD_BITS, build_program, kernels
from repro.sim.vector.engine import VectorEngine, VectorIncremental
from repro.sim.vector.kernels import (
    STEP_MEMO_SIZE,
    TIER_UP_STEPS,
    IntKernel,
    _step_function,
    _step_source,
)
from repro.sim.vector.program import covering, covers
from repro.tgen.random_tgen import generate_test_sequence

FIXTURES = Path(__file__).parent / "fixtures"


def _random_stimulus(rng, n_pi, max_len, ternary=True):
    """A random stimulus: ``max_len``-bounded rows of 0/1/X values."""
    alphabet = [0, 1, 2] if ternary else [0, 1]
    length = rng.randint(0, max_len)
    return [[rng.choice(alphabet) for _ in range(n_pi)] for _ in range(length)]


def _assert_same_result(a, b, context=""):
    """Full FaultSimResult equality — times, sets, lines, counts."""
    assert a.detection_time == b.detection_time, context
    assert a.undetected == b.undetected, context
    assert a.n_faults == b.n_faults, context
    assert a.lines == b.lines, context


def _outcome(call):
    """``call()``'s value, or the message of the SimulationError it raised."""
    try:
        return "ok", call()
    except SimulationError as exc:
        return "error", str(exc)


def _run_both(circuit, stimulus, faults, **kw):
    oracle = FaultSimulator(circuit, backend="python").run(
        stimulus, faults, **kw
    )
    vector = FaultSimulator(circuit, backend="vector").run(
        stimulus, faults, **kw
    )
    return oracle, vector


class TestRandomCircuits:
    """Hypothesis: random synthetic circuits × faults × sequences."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        record=st.booleans(),
    )
    def test_backends_agree(
        self, seed, n_pi, n_ff, n_gates, stim_seed, record
    ):
        n_gates = max(n_gates, n_ff, 2)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, 1, n_ff, n_gates, seed=seed)
        )
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        if rng.random() < 0.5:
            faults = [f for f in faults if rng.random() < 0.5]
        stimulus = _random_stimulus(rng, n_pi, 12)
        oracle = FaultSimulator(circuit, backend="python").run(
            stimulus, faults, record_lines=record,
            stop_when_all_detected=not record,
        )
        vector = FaultSimulator(circuit, backend="vector").run(
            stimulus, faults, record_lines=record,
            stop_when_all_detected=not record,
        )
        _assert_same_result(oracle, vector)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_po=st.integers(min_value=1, max_value=3),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_output_responses_agree(
        self, seed, n_pi, n_po, n_ff, n_gates, stim_seed
    ):
        n_gates = max(n_gates, n_ff, n_po)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, n_po, n_ff, n_gates, seed=seed)
        )
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        if rng.random() < 0.5:
            faults = [f for f in faults if rng.random() < 0.5]
        stimulus = _random_stimulus(rng, n_pi, 12)
        oracle = FaultSimulator(circuit, backend="python").output_responses(
            stimulus, faults
        )
        vector = FaultSimulator(circuit, backend="vector").output_responses(
            stimulus, faults
        )
        assert oracle == vector
        assert list(oracle[1]) == list(vector[1]) == faults
        assert oracle[0] == list(LogicSimulator(circuit).run(stimulus).outputs)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stim_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_incremental_agrees(self, seed, stim_seed):
        circuit = synthesize(SynthSpec("hyp", 3, 2, 3, 12, seed=seed))
        faults = all_faults(circuit)
        inc_py = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc_vec = IncrementalFaultSimulator(circuit, faults, backend="vector")
        rng = random.Random(stim_seed)
        for cycle in range(12):
            pattern = [rng.choice([0, 1, 2]) for _ in circuit.inputs]
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            assert inc_py.step(pattern) == inc_vec.step(pattern)
            assert inc_py.remaining_faults() == inc_vec.remaining_faults()
            if cycle == 6:
                inc_py.regroup()
                inc_vec.regroup()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        n_cands=st.integers(min_value=1, max_value=6),
        regroup=st.booleans(),
    )
    def test_step_best_agrees(
        self, seed, n_pi, n_ff, n_gates, stim_seed, n_cands, regroup
    ):
        """``step_best`` commits the earliest argmax of ``peek`` and
        returns what ``step`` of it detects, on both backends, from a
        random state, before or after a regroup."""
        n_gates = max(n_gates, n_ff, 2)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, 1, n_ff, n_gates, seed=seed)
        )
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        twin = IncrementalFaultSimulator(circuit, faults, backend="python")
        sims = [
            IncrementalFaultSimulator(circuit, faults, backend=backend)
            for backend in ("python", "vector")
        ]
        for pattern in _random_stimulus(rng, n_pi, 10):
            newly = twin.step(pattern)
            assert [sim.step(pattern) for sim in sims] == [newly, newly]
        if regroup:
            for sim in (twin, *sims):
                sim.regroup()
        for _ in range(3):
            cands = [
                [rng.choice([0, 1, 2]) for _ in range(n_pi)]
                for _ in range(n_cands)
            ]
            scores = [twin.peek(c) for c in cands]
            best = scores.index(max(scores))
            newly = twin.step(cands[best])
            for sim in sims:
                assert sim.step_best(cands) == (best, newly)
                assert sim.remaining_faults() == twin.remaining_faults()
                assert sim.n_remaining == twin.n_remaining
        probe = [rng.choice([0, 1]) for _ in range(n_pi)]
        newly = twin.step(probe)
        assert [sim.step(probe) for sim in sims] == [newly, newly]


class TestFixtureCircuits:
    """Bundled circuits, every entry point."""

    @pytest.mark.parametrize(
        "name", ["s27", "g208", "defects.bench"]
    )
    def test_run_equivalence(self, name):
        circuit = (
            parse_bench(FIXTURES / name)
            if name.endswith(".bench")
            else load_circuit(name)
        )
        faults = all_faults(circuit)
        rng = random.Random(hash(name) & 0xFFFF)
        for trial in range(4):
            stimulus = _random_stimulus(rng, len(circuit.inputs), 25)
            for kw in (
                {"record_lines": True, "stop_when_all_detected": False},
                {},
                {"stop_when_all_detected": False},
            ):
                oracle, vector = _run_both(circuit, stimulus, faults, **kw)
                _assert_same_result(
                    oracle, vector, f"{name} trial={trial} kw={kw}"
                )

    def test_screen_and_batch_parity(self):
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        rng = random.Random(11)
        stimuli = [
            _random_stimulus(rng, len(circuit.inputs), 20) for _ in range(5)
        ]
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        for stimulus in stimuli:
            assert oracle.detects_any(stimulus, faults) == vector.detects_any(
                stimulus, faults
            )
        assert oracle.detects_any_batch(
            stimuli, faults
        ) == vector.detects_any_batch(stimuli, faults)
        batch = vector.run_batch(stimuli, faults, stop_when_all_detected=False)
        for stimulus, result in zip(stimuli, batch):
            _assert_same_result(
                oracle.run(stimulus, faults, stop_when_all_detected=False),
                result,
            )

    def test_power_up_state_sweep(self):
        """reset_state restores the all-X power-up state exactly: a
        second sweep of the same walk detects the same faults at the
        same steps, on both backends."""
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(3)
        walk = [
            [rng.choice([0, 1, 2]) for _ in circuit.inputs] for _ in range(8)
        ]
        for backend in ("python", "vector"):
            inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
            first = [inc.step(p) for p in walk]
            detected_once = sorted(
                f for newly in first for f in newly
            )
            inc.reset_state()
            # State resets; detected faults stay dropped — the sweep
            # continues over the survivors only.
            survivors = inc.remaining_faults()
            assert sorted(survivors + detected_once) == sorted(faults)

    def test_pruned_config_equivalence(self):
        circuit = parse_bench(FIXTURES / "defects.bench")
        faults = all_faults(circuit)
        pruner = FaultPruner(circuit)
        rng = random.Random(5)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 15)
        oracle = FaultSimulator(circuit, pruner=pruner, backend="python").run(
            stimulus, faults
        )
        vector = FaultSimulator(circuit, pruner=pruner, backend="vector").run(
            stimulus, faults
        )
        _assert_same_result(oracle, vector)
        # And pruned == unpruned (the pruner's standing soundness claim).
        plain = FaultSimulator(circuit, backend="vector").run(stimulus, faults)
        _assert_same_result(vector, plain)

    def test_output_responses_g208(self):
        """Every fault of g208 (several oracle groups, one kernel pass)
        over a ternary stimulus: same good rows, same sparse diffs."""
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        assert len(faults) > 2 * GROUP_FAULTS
        rng = random.Random(17)
        stimulus = [
            [rng.choice([0, 1, 2]) for _ in circuit.inputs] for _ in range(40)
        ]
        good, diffs = FaultSimulator(
            circuit, backend="python"
        ).output_responses(stimulus, faults)
        assert (good, diffs) == FaultSimulator(
            circuit, backend="vector"
        ).output_responses(stimulus, faults)
        assert good == list(LogicSimulator(circuit).run(stimulus).outputs)
        values = [v for diff in diffs.values() for v in diff.values()]
        # Both difference kinds occur: binary complement and binary/X.
        assert VX in values and any(v != VX for v in values)


class TestWordBoundaries:
    """Fault counts straddling the word width pack correctly."""

    def test_group_faults_derived_from_word_bits(self):
        # The vector kernel owns the word width; the simulator's group
        # size (63 = word minus the good-machine lane) must follow it.
        assert GROUP_FAULTS == WORD_BITS - 1
        assert WORD_BITS == 64

    @pytest.mark.parametrize(
        "n_faults", [GROUP_FAULTS - 1, GROUP_FAULTS, GROUP_FAULTS + 1,
                     WORD_BITS, WORD_BITS + 1, 2 * GROUP_FAULTS + 3]
    )
    def test_boundary_fault_counts(self, n_faults):
        circuit = load_circuit("g208")
        faults = all_faults(circuit)[:n_faults]
        assert len(faults) == n_faults
        rng = random.Random(n_faults)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 20)
        oracle, vector = _run_both(
            circuit, stimulus, faults, stop_when_all_detected=False
        )
        _assert_same_result(oracle, vector)

    def test_single_fault(self):
        circuit = load_circuit("s27")
        fault = all_faults(circuit)[0]
        rng = random.Random(1)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 20)
        oracle, vector = _run_both(circuit, stimulus, [fault])
        _assert_same_result(oracle, vector)

    def test_zero_faults(self):
        """With no fault to simulate the oracle steps nothing, so it
        never checks the stimulus; the vector backend must agree."""
        circuit = load_circuit("s27")
        result = FaultSimulator(circuit, backend="vector").run(
            [[0, 1, 0, 1]], []
        )
        assert result.n_faults == 0
        assert result.detection_time == {}
        assert result.undetected == ()
        # A walk that detects one fault: after regroup no group is left.
        rng = random.Random(7)
        walk = [[rng.randint(0, 1) for _ in circuit.inputs] for _ in range(8)]
        first = FaultSimulator(circuit, backend="python").run(
            walk, all_faults(circuit)
        )
        lone = first.detected[0]
        walk = walk[: first.detection_time[lone] + 1]
        # Every fault of this list is certified untestable.
        defects = parse_bench(FIXTURES / "defects.bench")
        pruner = FaultPruner(defects)
        _, pruned = pruner.split(all_faults(defects))
        assert pruned

        def calls(backend, bad):
            stimulus = [[0, 1, 0, 1], bad]
            sim = FaultSimulator(circuit, backend=backend)
            pruned_sim = FaultSimulator(defects, pruner=pruner, backend=backend)

            def incremental(faults, prefix, op):
                inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
                for pattern in prefix:
                    inc.step(pattern)
                inc.regroup()
                return getattr(inc, op)(bad)

            return [
                _outcome(lambda: sim.run(stimulus, [])),
                _outcome(lambda: sim.run(stimulus, [], record_lines=True)),
                _outcome(lambda: sim.run(
                    stimulus, [], stop_when_all_detected=False)),
                _outcome(lambda: sim.run_batch([stimulus, [bad]], [])),
                _outcome(lambda: sim.run_batch(
                    [stimulus, [bad]], [], stop_when_all_detected=False)),
                _outcome(lambda: sim.detects_any(stimulus, [])),
                _outcome(lambda: sim.detects_any_batch([stimulus, [bad]], [])),
                _outcome(lambda: pruned_sim.run([bad[:3]] * 2, pruned)),
                _outcome(lambda: pruned_sim.run_batch(
                    [[bad[:3]], [bad[:2]]], pruned)),
                _outcome(lambda: incremental([], [], "step")),
                _outcome(lambda: incremental([], [], "peek")),
                _outcome(lambda: incremental([lone], walk, "step")),
                _outcome(lambda: incremental([lone], walk, "peek")),
            ]

        for bad in ([0, 1, 0], [0, 1, 0, 7]):  # wrong width, bad value
            oracle = calls("python", bad)
            assert all(kind == "ok" for kind, _ in oracle), bad
            assert calls("vector", bad) == oracle, bad

    def test_empty_stimulus(self):
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        oracle = FaultSimulator(circuit, backend="python").run([], faults)
        vector = FaultSimulator(circuit, backend="vector").run([], faults)
        _assert_same_result(oracle, vector)
        assert vector.detection_time == {}


class TestIncrementalPartialDetection:
    """step/peek/regroup equivalence after some faults are detected."""

    def test_regroup_after_partial_detection(self):
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        inc_py = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc_vec = IncrementalFaultSimulator(circuit, faults, backend="vector")
        rng = random.Random(21)
        detected_total = 0
        for cycle in range(30):
            pattern = [rng.choice([0, 1]) for _ in circuit.inputs]
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            newly = inc_py.step(pattern)
            assert newly == inc_vec.step(pattern)
            detected_total += len(newly)
            if detected_total and cycle % 7 == 0:
                inc_py.regroup()
                inc_vec.regroup()
                assert (
                    inc_py.remaining_faults() == inc_vec.remaining_faults()
                )
        assert detected_total > 0
        assert inc_py.n_remaining == inc_vec.n_remaining

    def test_detects_any_short_circuit_parity(self):
        """detects_any answers identically whether or not the backend
        short-circuits on first detection."""
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(13)
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        hits = misses = 0
        for _ in range(12):
            stimulus = _random_stimulus(rng, len(circuit.inputs), 6)
            verdict = oracle.detects_any(stimulus, faults)
            assert verdict == vector.detects_any(stimulus, faults)
            hits += verdict
            misses += not verdict
        assert hits and misses  # both answers exercised


class TestStepBestAndSnapshots:
    """``step_best`` edge cases, and snapshot/restore across layouts."""

    @staticmethod
    def _walk(circuit, n, seed):
        rng = random.Random(seed)
        return [[rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(n)]

    def test_zero_faults(self):
        """No fault, no group: nothing is stepped or validated."""
        circuit = load_circuit("s27")
        for backend in ("python", "vector"):
            inc = IncrementalFaultSimulator(circuit, [], backend=backend)
            assert inc.step_best([[0, 1, 0], [0, 1, 0, 7]]) == (0, [])
            assert inc.remaining_faults() == []

    def test_all_detected_still_validates(self):
        """Detecting every fault re-lanes nothing away: like the oracle,
        whose groups outlive their faults, the vector backend still
        rejects a malformed pattern."""
        circuit = load_circuit("g208")
        walk = self._walk(circuit, 40, 3)
        result = FaultSimulator(circuit, backend="python").run(
            walk, all_faults(circuit)
        )
        # Faults a single cycle detects all at once, over two words.
        times = list(result.detection_time.values())
        burst = max(set(times), key=times.count)
        faults = [f for f in result.detected if result.detection_time[f] == burst]
        assert len(faults) > WORD_BITS
        for backend in ("python", "vector"):
            inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
            for pattern in walk:
                inc.step(pattern)
            assert inc.n_remaining == 0
            with pytest.raises(SimulationError, match="primary inputs"):
                inc.step([0, 1])
            with pytest.raises(SimulationError, match="primary inputs"):
                inc.step_best([walk[0], [0, 1]])

    def test_after_regroup(self):
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        walk = self._walk(circuit, 40, 3)
        twin = IncrementalFaultSimulator(circuit, faults, backend="python")
        sims = [
            IncrementalFaultSimulator(circuit, faults, backend=backend)
            for backend in ("python", "vector")
        ]
        for sim in (twin, *sims):
            for pattern in walk[:20]:
                sim.step(pattern)
            sim.regroup()
        for u in range(20, 40, 4):
            cands = walk[u : u + 4]
            scores = [twin.peek(c) for c in cands]
            best = scores.index(max(scores))
            newly = twin.step(cands[best])
            for sim in sims:
                assert sim.step_best(cands) == (best, newly)
                assert sim.remaining_faults() == twin.remaining_faults()

    @pytest.mark.parametrize("bad", [[0, 1, 0], [0, 1, 0, 7, 1, 0, 1, 1, 0, 1]])
    def test_malformed_candidate(self, bad):
        """The first failing peek's error, raised before any state
        change, on both backends."""
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        walk = self._walk(circuit, 12, 9)
        cands = [walk[10], bad, walk[11]]
        twin = IncrementalFaultSimulator(circuit, faults, backend="python")
        for pattern in walk[:10]:
            twin.step(pattern)
        with pytest.raises(SimulationError) as peeked:
            for cand in cands:
                twin.peek(cand)
        remaining = twin.remaining_faults()
        expected = twin.step(walk[11])
        for backend in ("python", "vector"):
            inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
            for pattern in walk[:10]:
                inc.step(pattern)
            with pytest.raises(SimulationError) as raised:
                inc.step_best(cands)
            assert str(raised.value) == str(peeked.value)
            assert inc.remaining_faults() == remaining
            assert inc.step(walk[11]) == expected

    def test_snapshot_restore_across_relane(self, monkeypatch):
        """A snapshot taken before a repack (automatic on both backends
        once the survivors fit in half the words or groups) restores
        exactly, and so does one taken after it."""
        relanes = {"python": [], "vector": []}
        regroup = IncrementalFaultSimulator.regroup
        relane = VectorIncremental.regroup

        def counted(self):
            relanes["python"].append(self.n_remaining)
            regroup(self)

        def counted_vector(self):
            relanes["vector"].append(len(self._lane_fault))
            relane(self)

        monkeypatch.setattr(IncrementalFaultSimulator, "regroup", counted)
        monkeypatch.setattr(VectorIncremental, "regroup", counted_vector)
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        walk = self._walk(circuit, 60, 5)
        for backend in ("python", "vector"):
            inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
            before = inc.snapshot()
            first = [inc.step(p) for p in walk]
            remaining = inc.remaining_faults()
            after = inc.snapshot()
            second = [inc.step(p) for p in walk]
            inc.restore(before)
            assert inc.n_remaining == len(faults)
            assert [inc.step(p) for p in walk] == first
            inc.restore(after)
            assert inc.remaining_faults() == remaining
            assert [inc.step(p) for p in walk] == second
        assert relanes["python"] and relanes["vector"]
        assert relanes["vector"][0] == len(faults)

    def test_oracle_repacks_once_survivors_fit_half(self, monkeypatch):
        """After a detecting step the oracle holds fewer than twice the
        groups its survivors need, as the vector backend re-lanes, and
        the repack changes no answer of a twin that never repacks."""
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        inc = IncrementalFaultSimulator(circuit, faults, backend="python")
        twin = IncrementalFaultSimulator(circuit, faults, backend="python")
        monkeypatch.setattr(twin, "regroup", lambda: None)
        n_groups = len(inc._groups)
        assert n_groups > 2
        for pattern in self._walk(circuit, 200, 7):
            assert inc.step(pattern) == twin.step(pattern)
            assert inc.remaining_faults() == twin.remaining_faults()
            need = -(-inc.n_remaining // GROUP_FAULTS)
            assert not need or len(inc._groups) < 2 * need
        assert len(inc._groups) < len(twin._groups) == n_groups


class TestStepMemo:
    """Compiled step code is shared by force layout; masks stay per kernel."""

    def test_layout_reuse_is_mask_safe(self):
        """A fault list and its reverse have one layout but different
        lanes: the second run reuses the first one's compiled step with
        its own masks and still matches the oracle.  The full universe
        has branch faults outside the covering layout, so both runs
        take the own-layout path."""
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        rng = random.Random(29)
        stimulus = _random_stimulus(rng, len(circuit.inputs), 30)
        _step_function.cache_clear()
        for fault_list in (faults, faults[::-1]):
            before = _step_function.cache_info()
            oracle, vector = _run_both(
                circuit, stimulus, fault_list, stop_when_all_detected=False
            )
            _assert_same_result(oracle, vector)
        assert _step_function.cache_info().hits > before.hits
        assert _step_function.cache_info().misses == before.misses == 1
        # With fault dropping, compaction rebuilds agree too, on the memo
        # or, when their survivors fit the covering layout, on that.
        for fault_list in (faults, faults[::-1]):
            _assert_same_result(*_run_both(circuit, stimulus, fault_list))

    @pytest.mark.parametrize("name", ["s27", "g208"])
    @pytest.mark.parametrize("polarity", ["sa0", "sa1", "both"])
    def test_single_polarity_sites(self, name, polarity):
        circuit = load_circuit(name)
        faults = [
            f for f in all_faults(circuit)
            if polarity == "both" or f.stuck == int(polarity[-1])
        ]
        rng = random.Random(len(faults))
        n_pi = len(circuit.inputs)
        stimuli = [_random_stimulus(rng, n_pi, 24) for _ in range(3)]
        stimuli[0] = stimuli[0] or [[0] * n_pi]
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        for kw in ({}, {"record_lines": True, "stop_when_all_detected": False}):
            _assert_same_result(
                oracle.run(stimuli[0], faults, **kw),
                vector.run(stimuli[0], faults, **kw),
                f"{name} {polarity} {kw}",
            )
        for early in (True, False):
            for a, b in zip(
                oracle.run_batch(stimuli, faults, stop_when_all_detected=early),
                vector.run_batch(stimuli, faults, stop_when_all_detected=early),
            ):
                _assert_same_result(a, b, f"{name} {polarity} batch")
        assert oracle.detects_any_batch(
            stimuli, faults
        ) == vector.detects_any_batch(stimuli, faults)
        assert oracle.output_responses(
            stimuli[0], faults
        ) == vector.output_responses(stimuli[0], faults)
        inc_py = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc_vec = IncrementalFaultSimulator(circuit, faults, backend="vector")
        for u, pattern in enumerate(stimuli[0]):
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            assert inc_py.step(pattern) == inc_vec.step(pattern)
            if u % 5 == 4:
                inc_py.regroup()
                inc_vec.regroup()
            assert inc_py.remaining_faults() == inc_vec.remaining_faults()

    @pytest.mark.parametrize("name", ["s27", "g208"])
    def test_sites_emit_only_their_polarities(self, name):
        """Every site carries both polarities in the full list, so its
        step needs as many masks as the two one-polarity lists together."""
        circuit = load_circuit(name)
        comp = compile_circuit(circuit)
        flop_pos = {net: i for i, net in enumerate(circuit.flops)}
        faults = all_faults(circuit)
        plans = {
            polarity: _step_source(build_program(comp, flop_pos, [
                f for f in faults if polarity is None or f.stuck == polarity
            ]))[1]
            for polarity in (0, 1, None)
        }
        assert len(plans[0]) == len(plans[1]) > 0
        assert len(plans[None]) == len(plans[0]) + len(plans[1])
        assert all(negate for _, negate in plans[1][1::2])
        assert all(negate for _, negate in plans[0][0::2])

    def test_memo_is_bounded(self):
        circuit = load_circuit("s27")
        # Faults the collapsed list does not represent lie outside the
        # covering layout, so each compiles its own layout.
        collapsed = set(collapse_faults(circuit))
        faults = [f for f in all_faults(circuit) if f not in collapsed]
        assert len(faults) > STEP_MEMO_SIZE
        stimulus = [[0, 1, 0, 1], [1, 1, 0, 0]]
        sim = FaultSimulator(circuit, backend="vector")
        _step_function.cache_clear()
        for fault in faults:  # a site and polarity per layout
            sim.run(stimulus, [fault], stop_when_all_detected=False)
            assert _step_function.cache_info().currsize <= STEP_MEMO_SIZE
        info = _step_function.cache_info()
        assert info.maxsize == STEP_MEMO_SIZE
        assert info.misses > 2 * STEP_MEMO_SIZE
        assert info.currsize == STEP_MEMO_SIZE


class TestResponseConsumers:
    """MISR grading and fault dictionaries give the same answers on
    either backend (selected through ``REPRO_SIM_BACKEND``)."""

    def test_dictionary_and_signature_parity(self, monkeypatch):
        circuit = load_circuit("s27")
        faults = all_faults(circuit)
        rng = random.Random(23)
        stimuli = [
            [
                [rng.choice([0, 1, 2] if window == 0 else [0, 1])
                 for _ in circuit.inputs]
                for _ in range(30)
            ]
            for window in range(3)
        ]
        outcomes = {}
        for backend in ("python", "vector"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            assert FaultSimulator(circuit).backend == backend
            dictionary = FaultDictionary.build(circuit, stimuli[0], faults)
            outcomes[backend] = (
                [dictionary.syndrome(f) for f in dictionary.faults],
                [
                    signature_coverage(circuit, stimuli, faults, misr_width=w)
                    for w in (2, 8)
                ],
            )
        assert outcomes["python"] == outcomes["vector"]
        narrow = outcomes["vector"][1][0]
        # The short register exercises every verdict but "undetected".
        assert narrow.detected and narrow.aliased and narrow.unknown

    def test_parity_across_the_tier_up(self, monkeypatch, tier_ups):
        """g208, a sample of its collapsed list (the whole list is the
        covering layout itself) and windows longer than
        ``TIER_UP_STEPS``: the no-drop pass behind both consumers starts
        on the covering code and switches to the sample's own layout
        mid-pass."""
        circuit = load_circuit("g208")
        faults = collapse_faults(circuit)[::2]
        rng = random.Random(31)
        length = TIER_UP_STEPS + 72
        stimuli = [
            [
                [rng.choice([0, 1, 2] if window == 0 else [0, 1])
                 for _ in circuit.inputs]
                for _ in range(length)
            ]
            for window in range(3)
        ]
        outcomes = {}
        for backend in ("python", "vector"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            dictionary = FaultDictionary.build(circuit, stimuli[0], faults)
            outcomes[backend] = (
                [dictionary.syndrome(f) for f in dictionary.faults],
                [
                    signature_coverage(circuit, stimuli, faults, misr_width=w)
                    for w in (2, 8)
                ],
            )
        assert outcomes["python"] == outcomes["vector"]
        # One tier-up per pass: the dictionary's, and each grading's
        # first window (later windows reuse the memoized program).
        assert [steps for _, steps in tier_ups] == [TIER_UP_STEPS] * 3
        wide = outcomes["vector"][1][1]
        assert wide.detected and len(wide.detected) < len(faults)


# -- periodic stimuli ---------------------------------------------------------


def _weighted_stimulus(rng, n_pi, length, period, ternary=False):
    """A weighted sequence: input ``i`` repeats its own random
    subsequence from phase 0.  Each subsequence length divides
    ``period``, so the stimulus period divides it too."""
    alphabet = [0, 1, 2] if ternary else [0, 1]
    divisors = [d for d in range(1, period + 1) if period % d == 0]
    subsequences = [
        [rng.choice(alphabet) for _ in range(rng.choice(divisors))]
        for _ in range(n_pi)
    ]
    return [
        [alpha[u % len(alpha)] for alpha in subsequences]
        for u in range(length)
    ]


def _periodic_stimuli(rng, n_pi, length, period, kind):
    """Three stimuli of one ``kind``, of different lengths up to
    ``length``: weighted with periods dividing ``period``, behind an
    aperiodic binary or an X prefix, or aperiodic."""
    if kind == "aperiodic":
        return [_random_stimulus(rng, n_pi, length) for _ in range(3)]
    out = []
    for _ in range(3):
        size = rng.randint(1, length)
        stimulus = _weighted_stimulus(
            rng, n_pi, size, period, ternary=rng.random() < 0.2
        )
        if kind != "weighted":
            value = [0, 1] if kind == "binary-prefix" else [2]
            prefix = [
                [rng.choice(value) for _ in range(n_pi)]
                for _ in range(rng.randint(1, max(1, size // 3)))
            ]
            stimulus = prefix + stimulus
        out.append(stimulus)
    return out


RUN_KWARGS = (
    {},
    {"stop_when_all_detected": False},
    {"record_lines": True},
    {"record_lines": True, "stop_when_all_detected": False},
)


class TestPeriodicStimuli:
    """Hypothesis: the vector engine stops a weighted sequence once its
    state repeats; the oracle steps every pattern.  Every entry point
    must still agree, errors included."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_po=st.integers(min_value=1, max_value=3),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=2, max_value=40),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=60),
        period=st.integers(min_value=1, max_value=40),
        kind=st.sampled_from(
            ["weighted"] * 3 + ["binary-prefix", "x-prefix", "aperiodic"]
        ),
    )
    def test_backends_agree(
        self, seed, n_pi, n_po, n_ff, n_gates, stim_seed, length,
        period, kind,
    ):
        n_gates = max(n_gates, n_ff, n_po)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, n_po, n_ff, n_gates, seed=seed)
        )
        # From about eight gates on, more than one word of faults: run()
        # compacts its lanes mid-run once half of them are detected.
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        # Periods from 1 to the whole length: above length / 2 too.
        stimuli = _periodic_stimuli(
            rng, n_pi, length, min(period, length), kind
        )
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        for stimulus in stimuli:
            for kw in RUN_KWARGS:
                _assert_same_result(
                    oracle.run(stimulus, faults, **kw),
                    vector.run(stimulus, faults, **kw),
                    f"{kind} {kw}",
                )
        for early in (True, False):
            for a, b in zip(
                oracle.run_batch(stimuli, faults, stop_when_all_detected=early),
                vector.run_batch(stimuli, faults, stop_when_all_detected=early),
            ):
                _assert_same_result(a, b, f"{kind} batch early={early}")
        # A sample the first stimulus leaves undetected, plus a fault it
        # detects when there is one: both verdicts occur across examples.
        first = oracle.run(stimuli[0], faults)
        sample = list(first.undetected[:8]) + list(first.detected[:1])
        verdicts = [oracle.detects_any(s, sample) for s in stimuli]
        assert [vector.detects_any(s, sample) for s in stimuli] == verdicts
        assert vector.detects_any_batch(stimuli, sample) == verdicts
        assert oracle.detects_any_batch(stimuli, sample) == verdicts
        assert oracle.output_responses(
            stimuli[0], faults
        ) == vector.output_responses(stimuli[0], faults)
        inc_py = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc_vec = IncrementalFaultSimulator(circuit, faults, backend="vector")
        for pattern in stimuli[0]:
            assert inc_py.peek(pattern) == inc_vec.peek(pattern)
            assert inc_py.step(pattern) == inc_vec.step(pattern)
        assert inc_py.remaining_faults() == inc_vec.remaining_faults()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        period=st.integers(min_value=1, max_value=6),
        repeats=st.integers(min_value=2, max_value=12),
        inside=st.booleans(),
    )
    def test_malformed_pattern_error_parity(
        self, seed, stim_seed, period, repeats, inside
    ):
        """A malformed pattern after a periodic stretch (or inside every
        period) raises the oracle's error on both backends: the stop
        only skips patterns equal to ones it has validated."""
        circuit = synthesize(SynthSpec("hyp", 3, 2, 3, 12, seed=seed))
        faults = all_faults(circuit)
        rng = random.Random(stim_seed)
        n_pi = len(circuit.inputs)
        block = [[rng.randint(0, 1) for _ in range(n_pi)] for _ in range(period)]
        for bad in ([0] * (n_pi + 1), [7] * n_pi):
            if inside:
                stimulus = (block[:-1] + [bad]) * repeats
            else:
                stimulus = block * repeats + [bad]
            sample = faults[:5]

            def calls(backend):
                sim = FaultSimulator(circuit, backend=backend)
                return [
                    *(
                        _outcome(lambda kw=kw: sim.run(stimulus, faults, **kw))
                        for kw in RUN_KWARGS
                    ),
                    _outcome(lambda: sim.run_batch([block * repeats, stimulus],
                                                   faults)),
                    _outcome(lambda: sim.run_batch(
                        [stimulus, block], faults,
                        stop_when_all_detected=False)),
                    _outcome(lambda: sim.detects_any(stimulus, sample)),
                    _outcome(lambda: sim.detects_any_batch(
                        [block * repeats, stimulus], sample)),
                    _outcome(lambda: sim.output_responses(stimulus, sample)),
                ]

            oracle = calls("python")
            assert any(kind == "error" for kind, _ in oracle)
            assert calls("vector") == oracle, (bad, inside)


@pytest.fixture
def kernel_steps(monkeypatch):
    """Counts :meth:`IntKernel.step` calls (one per stepped cycle)."""
    count = [0]
    step = IntKernel.step

    def counted(self, patterns):
        count[0] += 1
        return step(self, patterns)

    monkeypatch.setattr(IntKernel, "step", counted)
    return count


class TestPeriodicStopFires:
    """The stop cuts a short-period weighted sequence to a few periods,
    and leaves full-length readers and aperiodic stimuli alone."""

    L_G = 2000

    @pytest.fixture(scope="class")
    def setup(self):
        circuit = load_circuit("g208")
        assignment = WeightAssignment.from_strings(
            ["01", "1", "0", "10", "1", "0", "01", "1", "0", "1"]
        )
        t_g = list(assignment.generate(self.L_G).patterns)
        faults = collapse_faults(circuit)
        result = FaultSimulator(circuit, backend="vector").run(t_g, faults)
        assert result.undetected and result.detected
        return circuit, t_g, faults, result

    def test_negative_screen_stops(self, setup, kernel_steps):
        circuit, t_g, _, result = setup
        sample = list(result.undetected[:20])
        assert FaultSimulator(circuit, backend="python").detects_any(
            t_g, sample
        ) is False
        kernel_steps[0] = 0
        assert FaultSimulator(circuit, backend="vector").detects_any(
            t_g, sample
        ) is False
        assert 0 < kernel_steps[0] < 100

    def test_line_recording_run_stops(self, setup, kernel_steps):
        circuit, t_g, _, result = setup
        faults = list(result.undetected[:30]) + list(result.detected[:30])
        oracle = FaultSimulator(circuit, backend="python").run(
            t_g, faults, record_lines=True
        )
        kernel_steps[0] = 0
        vector = FaultSimulator(circuit, backend="vector").run(
            t_g, faults, record_lines=True
        )
        assert kernel_steps[0] < self.L_G
        _assert_same_result(oracle, vector)
        assert any(vector.lines[f] for f in result.detected[:30])

    def test_stop_after_lane_compaction(self, setup, kernel_steps, monkeypatch):
        """Two words of faults, most of them detected: the run compacts
        its lanes, starts a fresh checkpoint, and still stops."""
        circuit, t_g, _, result = setup
        faults = list(result.detected[:70]) + list(result.undetected[:30])
        compactions = []
        compact = VectorEngine._maybe_compact

        def counted(self, kern, lane_fault):
            out = compact(self, kern, lane_fault)
            if out[0] is not kern:
                compactions.append(kern)
            return out

        monkeypatch.setattr(VectorEngine, "_maybe_compact", counted)
        oracle = FaultSimulator(circuit, backend="python").run(t_g, faults)
        vector = FaultSimulator(circuit, backend="vector").run(t_g, faults)
        assert compactions
        assert kernel_steps[0] < 100
        _assert_same_result(oracle, vector)

    def test_output_responses_step_every_cycle(self, setup, kernel_steps):
        circuit, t_g, _, result = setup
        FaultSimulator(circuit, backend="vector").output_responses(
            t_g, list(result.undetected[:20])
        )
        assert kernel_steps[0] == self.L_G

    def test_aperiodic_sequence_is_never_cut(self, setup, kernel_steps):
        circuit, _, faults, _ = setup
        t = list(generate_test_sequence(circuit, faults, seed=1).sequence.patterns)
        sim = FaultSimulator(circuit, backend="vector")
        for kw in ({"stop_when_all_detected": False}, {"record_lines": True}):
            kernel_steps[0] = 0
            sim.run(t, faults, **kw)
            assert kernel_steps[0] == len(t), kw


# -- covering step code and tier-up -------------------------------------------


@pytest.fixture
def tier_ups(monkeypatch):
    """Records ``(program, steps)`` for every program that tiers up."""
    seen = []
    tier_up = kernels._tier_up

    def recorded(program):
        seen.append((program, program.steps))
        tier_up(program)

    monkeypatch.setattr(kernels, "_tier_up", recorded)
    return seen


@pytest.fixture
def step_compiles(monkeypatch):
    """Counts compiled step functions (the kernel module's ``compile``)."""
    count = [0]

    def counted(source, filename, mode):
        count[0] += 1
        return compile(source, filename, mode)

    _step_function.cache_clear()
    monkeypatch.setattr(kernels, "compile", counted, raising=False)
    return count


def _engine_program(sim, faults):
    """The vector engine's memoized program for ``faults``."""
    return sim._vector_engine()._programs[tuple(faults)]


class TestTierUp:
    """Hypothesis: a covered fault list starts on its circuit's covering
    step code and switches to its own layout's code after
    ``TIER_UP_STEPS`` steps, mid-call, on every entry point; every
    answer equals the oracle's, errors included."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_po=st.integers(min_value=1, max_value=3),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=2, max_value=30),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        extra=st.integers(min_value=1, max_value=60),
        period=st.integers(min_value=1, max_value=40),
        weighted=st.booleans(),
    )
    def test_backends_agree(
        self, seed, n_pi, n_po, n_ff, n_gates, stim_seed, extra, period,
        weighted,
    ):
        n_gates = max(n_gates, n_ff, n_po)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, n_po, n_ff, n_gates, seed=seed)
        )
        rng = random.Random(stim_seed)
        collapsed = collapse_faults(circuit)
        faults = [f for f in collapsed if rng.random() < 0.6] or collapsed[:1]
        stimuli = []
        for _ in range(3):
            length = TIER_UP_STEPS + rng.randint(1, extra)
            if weighted:
                stimuli.append(_weighted_stimulus(
                    rng, n_pi, length, period, ternary=rng.random() < 0.2
                ))
            else:
                stimuli.append([
                    [rng.choice([0, 1, 2]) for _ in range(n_pi)]
                    for _ in range(length)
                ])
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        for stimulus in stimuli:
            for kw in RUN_KWARGS:
                _assert_same_result(
                    oracle.run(stimulus, faults, **kw),
                    vector.run(stimulus, faults, **kw),
                    f"weighted={weighted} {kw}",
                )
        for early in (True, False):
            for a, b in zip(
                oracle.run_batch(stimuli, faults, stop_when_all_detected=early),
                vector.run_batch(stimuli, faults, stop_when_all_detected=early),
            ):
                _assert_same_result(a, b, f"batch early={early}")
        first = oracle.run(stimuli[0], faults)
        sample = list(first.undetected[:8]) + list(first.detected[:1])
        verdicts = [oracle.detects_any(s, sample) for s in stimuli]
        assert [vector.detects_any(s, sample) for s in stimuli] == verdicts
        assert vector.detects_any_batch(stimuli, sample) == verdicts
        assert oracle.output_responses(
            stimuli[0], faults
        ) == vector.output_responses(stimuli[0], faults)
        # output_responses steps every cycle: past the threshold the
        # list runs its own layout.
        assert _engine_program(vector, faults).own

        inc_py = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc_vec = IncrementalFaultSimulator(circuit, faults, backend="vector")
        snaps = None
        for u, pattern in enumerate(stimuli[0]):
            if u % 3 == 0:
                cands = [
                    stimuli[1][u % len(stimuli[1])],
                    pattern,
                    stimuli[2][u % len(stimuli[2])],
                ]
                assert inc_py.step_best(cands) == inc_vec.step_best(cands)
            else:
                assert inc_py.peek(pattern) == inc_vec.peek(pattern)
                assert inc_py.step(pattern) == inc_vec.step(pattern)
            if u == 40:
                snaps = (inc_py.snapshot(), inc_vec.snapshot(), u)
            if u == 90:
                inc_py.regroup()
                inc_vec.regroup()
            assert inc_py.remaining_faults() == inc_vec.remaining_faults()
        # Back to a state taken on the covering code, replayed on
        # whatever code its kernel's program runs now.
        inc_py.restore(snaps[0])
        inc_vec.restore(snaps[1])
        for pattern in stimuli[1][snaps[2] + 1 :]:
            assert inc_py.step(pattern) == inc_vec.step(pattern)
        assert inc_py.remaining_faults() == inc_vec.remaining_faults()

        # A malformed pattern after the tier-up raises the oracle's error.
        for bad in ([0] * (n_pi + 1), [7] * n_pi):
            stimulus = stimuli[0] + [bad]

            def calls(backend):
                sim = FaultSimulator(circuit, backend=backend)
                inc = IncrementalFaultSimulator(circuit, faults, backend=backend)
                return [
                    *(
                        _outcome(lambda kw=kw: sim.run(stimulus, faults, **kw))
                        for kw in RUN_KWARGS
                    ),
                    _outcome(lambda: sim.output_responses(stimulus, faults)),
                    _outcome(lambda: [inc.step(p) for p in stimulus]),
                ]

            assert calls("vector") == calls("python")

        # A list with a site outside the covering layout compiles its own
        # layout at once, and also agrees.
        comp = vector.comp
        flop_pos = {net: i for i, net in enumerate(circuit.flops)}
        outside = [
            f for f in all_faults(circuit) if not covers(
                covering(comp), build_program(comp, flop_pos, [f])
            )
        ]
        if outside:
            mixed = faults + outside[:2]
            for kw in RUN_KWARGS[:2]:
                _assert_same_result(
                    oracle.run(stimuli[1], mixed, **kw),
                    vector.run(stimuli[1], mixed, **kw),
                )
            program = _engine_program(vector, mixed)
            assert program.own and program.code is not covering(comp).code

    def test_tier_up_mid_pass(self, tier_ups):
        """A 300-cycle no-drop pass on a g208 sample switches code once,
        after exactly ``TIER_UP_STEPS`` cycles."""
        circuit = load_circuit("g208")
        faults = collapse_faults(circuit)[::4]
        rng = random.Random(41)
        stimulus = [
            [rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(300)
        ]
        vector = FaultSimulator(circuit, backend="vector")
        assert vector.output_responses(stimulus, faults) == FaultSimulator(
            circuit, backend="python"
        ).output_responses(stimulus, faults)
        program = _engine_program(vector, faults)
        assert tier_ups == [(program, TIER_UP_STEPS)]
        assert program.steps == len(stimulus)

    def test_blocks_count_as_steps(self, tier_ups):
        """A 16-block kernel step counts 16: a batch of 16 stimuli tiers
        up in its eighth cycle, and still agrees."""
        circuit = load_circuit("g208")
        faults = collapse_faults(circuit)[1::5]
        rng = random.Random(43)
        stimuli = [
            [[rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(20)]
            for _ in range(16)
        ]
        oracle = FaultSimulator(circuit, backend="python")
        vector = FaultSimulator(circuit, backend="vector")
        for a, b in zip(
            oracle.run_batch(stimuli, faults, stop_when_all_detected=False),
            vector.run_batch(stimuli, faults, stop_when_all_detected=False),
        ):
            _assert_same_result(a, b)
        assert tier_ups == [(_engine_program(vector, faults), TIER_UP_STEPS)]

    def test_kernels_on_one_program_switch_together(self, tier_ups):
        """``step_best``'s scoring kernel and the committed kernel share
        a program: whichever tiers it up, both run its own layout next,
        and a snapshot taken before restores after."""
        circuit = load_circuit("g208")
        faults = collapse_faults(circuit)[::3]
        rng = random.Random(47)
        walk = [
            [[rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(4)]
            for _ in range(60)
        ]
        twin = IncrementalFaultSimulator(circuit, faults, backend="python")
        inc = IncrementalFaultSimulator(circuit, faults, backend="vector")
        before = (twin.snapshot(), inc.snapshot())
        for cands in walk:
            assert inc.step_best(cands) == twin.step_best(cands)
            assert inc.peek(cands[0]) == twin.peek(cands[0])
            assert inc.step(cands[1]) == twin.step(cands[1])
        assert tier_ups and all(p.own for p, _ in tier_ups)
        vec = inc._vec
        assert vec._scorer.program is vec._kern.program
        for kern in (vec._kern, vec._scorer):
            assert kern._step_ops is kern.program.code.fn
        twin.restore(before[0])
        inc.restore(before[1])
        for cands in walk:
            assert inc.step(cands[2]) == twin.step(cands[2])
        assert inc.remaining_faults() == twin.remaining_faults()

    def test_uncovered_list_compiles_at_once(self, tier_ups):
        """Branch faults the collapsed list represents by a stem are
        outside the covering layout: such a list compiles its own
        layout before its first step, and the covering code is never
        built."""
        circuit = load_circuit("g208")
        faults = all_faults(circuit)
        rng = random.Random(53)
        stimulus = [[rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(8)]
        vector = FaultSimulator(circuit, backend="vector")
        _assert_same_result(
            FaultSimulator(circuit, backend="python").run(stimulus, faults),
            vector.run(stimulus, faults),
        )
        program = _engine_program(vector, faults)
        assert program.own and not tier_ups
        assert covering(vector.comp).code is None

    def test_covering_code_compiled_once_per_circuit(self, step_compiles):
        """Fresh samples of the collapsed list — screens, runs and
        batches, each over a few dozen cycles — compile one function
        between them: the covering code.  Another compiled circuit of
        the same netlist gets it from the memo."""
        circuit = load_circuit("g208")
        collapsed = collapse_faults(circuit)
        rng = random.Random(59)
        stimuli = [
            [[rng.choice([0, 1]) for _ in circuit.inputs] for _ in range(6)]
            for _ in range(3)
        ]
        vector = FaultSimulator(circuit, backend="vector")
        oracle = FaultSimulator(circuit, backend="python")
        for _ in range(8):
            sample = rng.sample(collapsed, 30)
            assert vector.detects_any_batch(
                stimuli, sample
            ) == oracle.detects_any_batch(stimuli, sample)
            _assert_same_result(
                vector.run(stimuli[0], sample), oracle.run(stimuli[0], sample)
            )
            for a, b in zip(
                vector.run_batch(stimuli, sample),
                oracle.run_batch(stimuli, sample),
            ):
                _assert_same_result(a, b)
        assert step_compiles[0] == 1
        cover = covering(vector.comp)
        assert cover.code is not None
        assert all(
            p.code is cover.code for p in vector._vector_engine()._programs.values()
        )
        other = FaultSimulator(circuit, backend="vector")
        other.run(stimuli[0], rng.sample(collapsed, 30))
        assert step_compiles[0] == 1
        assert covering(other.comp) is not cover

    def test_flow_compiles_few_step_functions(self, step_compiles):
        """A g208 hardware flow (L_G 512, seed 1) from an empty step
        memo compiles at most 10 step functions: the covering code and
        the own layouts of the few lists that outlive the tier-up."""
        result = run_full_flow("g208", FlowConfig(
            seed=1, procedure=ProcedureConfig(l_g=512),
            synthesize_hardware=True,
        ))
        assert result.tpg_verified
        assert 0 < step_compiles[0] <= 10
