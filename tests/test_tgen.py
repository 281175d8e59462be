"""Tests for the test-generation substrate: TestSequence, the
simulation-based generator, and static compaction — including the proof
that checkpoint-resumed compaction equals the cycle-0 formulation, and
the kernel step counts both phases are held to."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.synth import SynthSpec, synthesize
from repro.errors import SimulationError
from repro.sim import FaultSimulator, VX, collapse_faults
from repro.sim.faults import all_faults, fault_name
from repro.sim.vector.kernels import IntKernel
from repro.tgen import TestSequence, compact_sequence, generate_test_sequence
from repro.tgen.compaction import CompactionResult


class TestTestSequence:
    def test_from_strings_and_notation(self, paper_t):
        assert paper_t.at(0) == (0, 1, 1, 1)
        assert paper_t.value(9, 0) == 1
        assert paper_t.width == 4
        assert len(paper_t) == 10

    def test_restrict(self, paper_t):
        assert paper_t.restrict(2) == (1, 0, 1, 0, 0, 1, 0, 0, 0, 1)

    def test_x_values(self):
        seq = TestSequence.from_strings(["0x1", "X10"])
        assert seq.value(0, 1) == VX
        assert seq.value(1, 0) == VX

    def test_ragged_raises(self):
        with pytest.raises(SimulationError, match="ragged"):
            TestSequence([(0, 1), (0,)])

    def test_bad_value_raises(self):
        with pytest.raises(SimulationError):
            TestSequence([(0, 5)])

    def test_append_concat_prefix(self, paper_t):
        longer = paper_t.append((1, 1, 1, 1))
        assert len(longer) == 11
        assert len(paper_t) == 10  # immutable
        both = paper_t.concat(paper_t)
        assert len(both) == 20
        assert both.prefix(10) == paper_t

    def test_drop_time_unit(self, paper_t):
        dropped = paper_t.drop_time_unit(0)
        assert len(dropped) == 9
        assert dropped.at(0) == paper_t.at(1)

    def test_round_trip_strings(self, paper_t):
        assert TestSequence.from_strings(paper_t.to_strings()) == paper_t

    def test_equality_and_hash(self, paper_t):
        clone = TestSequence.from_strings(paper_t.to_strings())
        assert clone == paper_t
        assert hash(clone) == hash(paper_t)

    def test_iteration_and_indexing(self, paper_t):
        assert list(paper_t)[3] == paper_t[3]

    def test_empty(self):
        seq = TestSequence.empty(4)
        assert len(seq) == 0
        assert seq.width == 0


class TestGenerator:
    def test_s27_full_coverage(self, s27, s27_faults):
        gen = generate_test_sequence(s27, s27_faults, seed=7, max_len=500)
        assert gen.coverage == 1.0
        assert gen.undetected == ()

    def test_detected_set_is_what_sequence_detects(self, s27, s27_faults):
        gen = generate_test_sequence(s27, s27_faults, seed=7, max_len=500)
        resim = FaultSimulator(s27).run(gen.sequence.patterns, s27_faults)
        assert set(resim.detection_time) == set(gen.detected)

    def test_deterministic_in_seed(self, s27, s27_faults):
        a = generate_test_sequence(s27, s27_faults, seed=3, max_len=200)
        b = generate_test_sequence(s27, s27_faults, seed=3, max_len=200)
        assert a.sequence == b.sequence

    def test_seed_changes_sequence(self, s27, s27_faults):
        a = generate_test_sequence(s27, s27_faults, seed=3, max_len=200)
        b = generate_test_sequence(s27, s27_faults, seed=4, max_len=200)
        assert a.sequence != b.sequence

    def test_max_len_respected(self, g208):
        faults = collapse_faults(g208)
        gen = generate_test_sequence(g208, faults, seed=1, max_len=50)
        assert len(gen.sequence) <= 50

    def test_default_fault_list(self, s27):
        gen = generate_test_sequence(s27, seed=7, max_len=500)
        assert len(gen.detected) + len(gen.undetected) == 32


class TestCompaction:
    def test_preserves_detection(self, s27, s27_faults):
        gen = generate_test_sequence(s27, s27_faults, seed=7, max_len=500)
        comp = compact_sequence(s27, gen.sequence, gen.detected)
        resim = FaultSimulator(s27).run(comp.sequence.patterns, list(gen.detected))
        assert not resim.undetected

    def test_never_longer(self, s27, s27_faults):
        gen = generate_test_sequence(s27, s27_faults, seed=7, max_len=500)
        comp = compact_sequence(s27, gen.sequence, gen.detected)
        assert comp.compacted_length <= comp.original_length
        assert comp.reduction >= 0.0

    def test_budget_respected(self, s27, s27_faults):
        gen = generate_test_sequence(s27, s27_faults, seed=7, max_len=500)
        comp = compact_sequence(s27, gen.sequence, gen.detected, max_simulations=5)
        assert comp.n_simulations <= 5

    def test_rejects_non_covering_sequence(self, s27, s27_faults, paper_t):
        with pytest.raises(ValueError, match="does not detect"):
            compact_sequence(s27, paper_t.prefix(2), s27_faults)

    def test_empty_targets_noop(self, s27, paper_t):
        comp = compact_sequence(s27, paper_t, [])
        assert comp.sequence == paper_t
        assert comp.n_simulations == 0

    def test_paper_sequence_already_tight(self, s27, s27_faults, paper_t):
        # The Table-1 sequence detects faults at u=9, so truncation
        # cannot shorten it; omission may or may not help, but the
        # result must still detect everything.
        comp = compact_sequence(s27, paper_t, s27_faults)
        resim = FaultSimulator(s27).run(comp.sequence.patterns, s27_faults)
        assert not resim.undetected


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


def _cycle0_compaction(circuit, sequence, targets, budget):
    """Reference compaction: every check re-simulates its candidate
    from cycle 0 on the oracle (the formulation the checkpointed
    implementation must reproduce exactly)."""
    sim = FaultSimulator(circuit, backend="python")
    faults = list(targets)
    original = len(sequence)
    if not faults or not original:
        return CompactionResult(sequence, original, original, 0)
    result = sim.run(sequence.patterns, faults)
    checks = 1
    if result.undetected:
        raise ValueError(
            f"sequence does not detect {len(result.undetected)} of the "
            "target faults"
        )
    current = sequence.prefix(max(result.detection_time.values()) + 1)
    block = max(1, len(current) // 2)
    while block >= 1 and checks < budget:
        start = len(current) - block
        progressed = False
        while start >= 0 and checks < budget:
            candidate = TestSequence(
                current.patterns[:start] + current.patterns[start + block :]
            )
            if len(candidate):
                checks += 1
                if not sim.run(candidate.patterns, faults).undetected:
                    current = candidate
                    progressed = True
                    start -= block
                    continue
            start -= max(1, block // 2) if block > 1 else 1
        if block == 1 and not progressed:
            break
        block //= 2
    return CompactionResult(current, original, len(current), checks)


def _outcome(call):
    """``call()``'s value, or the text of the ValueError it raised."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


class TestResumedCompaction:
    """Hypothesis: resuming each check from a checkpoint of the accepted
    sequence yields exactly the cycle-0 compaction, on both backends."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=1, max_value=80),
    )
    def test_matches_cycle0_reference(
        self, seed, n_pi, n_ff, n_gates, stim_seed, budget
    ):
        n_gates = max(n_gates, n_ff, 2)
        circuit = synthesize(
            SynthSpec("hyp", n_pi, 1, n_ff, n_gates, seed=seed)
        )
        rng = random.Random(stim_seed)
        rows = []
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.15:
                rows.append((VX,) * n_pi)
            else:
                rows.append(tuple(rng.choice((0, 1, 1, 0, VX)) for _ in range(n_pi)))
        sequence = TestSequence(rows)
        faults = all_faults(circuit)
        full = FaultSimulator(circuit, backend="python").run(rows, faults)
        targets = list(full.detected)
        if full.undetected and rng.random() < 0.2:
            # Not covered: the same ValueError text, after one run.
            targets.append(rng.choice(full.undetected))
        rng.shuffle(targets)
        expected = _outcome(
            lambda: _cycle0_compaction(circuit, sequence, targets, budget)
        )
        for backend in ("python", "vector"):
            got = _outcome(
                lambda: compact_sequence(
                    circuit, sequence, targets, max_simulations=budget,
                    sim_backend=backend,
                )
            )
            assert got == expected, backend


class TestStepCounts:
    """Test generation and compaction each simulate ``T`` about once:
    counted in :meth:`IntKernel.step` calls on g208 at flow seed 1."""

    DIGEST = "2ebb33914f436fbbc8e4ff38806f31e7c3d622a7454707415933583ce0da6e16"
    COMPACTED = "e0a34f9072bd8b05a37ce42481b74c68d47743ededd0898948c0860d7e2196d8"

    def test_generation_steps_once_per_cycle(self, g208, kernel_steps):
        gen = generate_test_sequence(
            g208, seed=1, max_len=2000, sim_backend="vector"
        )
        assert kernel_steps[0] == len(gen.sequence) == 2000
        text = "\n".join(
            (
                "\n".join(gen.sequence.to_strings()),
                " ".join(map(fault_name, gen.detected)),
                " ".join(map(fault_name, gen.undetected)),
            )
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST

    def test_compaction_resumes_from_checkpoints(self, g208, kernel_steps):
        gen = generate_test_sequence(
            g208, seed=1, max_len=2000, sim_backend="vector"
        )
        kernel_steps[0] = 0
        comp = compact_sequence(
            g208, gen.sequence, gen.detected, max_simulations=60,
            sim_backend="vector",
        )
        # Every check re-simulating from cycle 0 takes 7,395 steps.
        assert kernel_steps[0] <= 4000
        assert (comp.original_length, comp.compacted_length) == (2000, 96)
        assert comp.n_simulations == 60
        text = "\n".join(comp.sequence.to_strings())
        assert hashlib.sha256(text.encode()).hexdigest() == self.COMPACTED
