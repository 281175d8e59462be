"""Differential proof for the compiled good-machine simulator.

:meth:`LogicSimulator.run` executes straight-line code generated from
the circuit's :class:`~repro.sim.compile.CompiledCircuit`;
:func:`repro.sim.logicsim._reference_run` interprets the same compiled
circuit one gate at a time through the scalar ternary reductions of
:mod:`repro.sim.values`.  The two must return the same
:class:`~repro.sim.logicsim.SimTrace` field by field (outputs, states,
recorded nets) and raise the same errors.  These tests enforce that by
hypothesis over random synthesized circuits and over random netlists
that use every gate type, on every library circuit, and on synthesized
TPGs replayed from reset.  :meth:`LogicSimulator.run_lanes` runs the
same gate code on words of lanes; lane ``k`` must equal the reference
run of lane ``k``'s own stimulus from its own initial state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit.gates import GateType, arity_bounds
from repro.circuit.library import available_circuits, load_circuit
from repro.circuit.synth import SynthSpec, synthesize
from repro.core import WeightAssignment
from repro.errors import SimulationError
from repro.hw import LfsrSpec, synthesize_tpg, verify_tpg
from repro.sim import LogicSimulator, V0, V1, VX
from repro.sim import logicsim
from repro.sim.logicsim import _reference_run

TERNARY = (V0, V1, VX)

#: Every combinational gate type the compiled form knows.
GATE_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)


def _both(circuit, stimulus, initial_state=None, record_nets=False):
    """(compiled trace, reference trace) for one run."""
    sim = LogicSimulator(circuit)
    compiled = sim.run(stimulus, initial_state, record_nets=record_nets)
    reference = _reference_run(
        sim.compiled, stimulus, initial_state, record_nets=record_nets
    )
    return compiled, reference


def _assert_same_trace(compiled, reference):
    assert compiled.outputs == reference.outputs
    assert compiled.states == reference.states
    assert compiled.nets == reference.nets
    assert len(compiled) == len(reference)


def _random_stimulus(rng, n_pi, length, x_rate=0.3):
    return [
        tuple(
            VX if rng.random() < x_rate else rng.choice((V0, V1))
            for _ in range(n_pi)
        )
        for _ in range(length)
    ]


def _random_netlist(rng, n_pi, n_ff, n_gates):
    """A random sequential netlist over every gate type and both constants.

    Flip-flops may feed each other (shift chains), themselves (hold) or
    take a constant, a primary input or any gate as next state.
    """
    b = CircuitBuilder("mix")
    nets = [b.input(f"i{k}") for k in range(n_pi)]
    flops = [f"q{k}" for k in range(n_ff)]
    nets += flops
    if rng.random() < 0.5:
        nets.append(b.const0("c0"))
    if rng.random() < 0.5:
        nets.append(b.const1("c1"))
    for g in range(n_gates):
        gtype = rng.choice(GATE_TYPES)
        lo, hi = arity_bounds(gtype)
        arity = rng.randint(lo, 4 if hi is None else hi)
        fanins = [rng.choice(nets) for _ in range(arity)]
        nets.append(b.gate(f"g{g}", gtype, *fanins))
    for q in flops:
        b.dff(q, rng.choice(nets))
    for net in rng.sample(nets, rng.randint(1, min(4, len(nets)))):
        b.output(net)
    return b.build()


class TestRandomCircuits:
    """Hypothesis: random circuits × ternary stimuli × initial states."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=5),
        n_ff=st.integers(min_value=0, max_value=5),
        n_gates=st.integers(min_value=3, max_value=24),
        stim_seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=0, max_value=16),
        record=st.booleans(),
        explicit_state=st.booleans(),
    )
    def test_synthesized_circuits(
        self, seed, n_pi, n_ff, n_gates, stim_seed, length, record,
        explicit_state,
    ):
        circuit = synthesize(
            SynthSpec("hyp", n_pi, 1, n_ff, max(n_gates, n_ff, 2), seed=seed)
        )
        rng = random.Random(stim_seed)
        stimulus = _random_stimulus(rng, n_pi, length)
        initial = (
            [rng.choice(TERNARY) for _ in circuit.flops]
            if explicit_state
            else None
        )
        _assert_same_trace(*_both(circuit, stimulus, initial, record))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_ff=st.integers(min_value=0, max_value=4),
        n_gates=st.integers(min_value=1, max_value=20),
        length=st.integers(min_value=0, max_value=12),
        record=st.booleans(),
    )
    def test_every_gate_type(self, seed, n_pi, n_ff, n_gates, length, record):
        rng = random.Random(seed)
        circuit = _random_netlist(rng, n_pi, n_ff, n_gates)
        stimulus = _random_stimulus(rng, n_pi, length)
        initial = [rng.choice(TERNARY) for _ in circuit.flops]
        _assert_same_trace(*_both(circuit, stimulus, initial, record))

    def test_empty_stimulus(self, s27):
        for record in (False, True):
            compiled, reference = _both(s27, [], record_nets=record)
            _assert_same_trace(compiled, reference)
            assert compiled.outputs == () and compiled.nets == ()


@pytest.mark.parametrize("name", available_circuits())
def test_library_circuit_200_cycles(name):
    circuit = load_circuit(name)
    rng = random.Random(sum(map(ord, name)))
    stimulus = _random_stimulus(rng, len(circuit.inputs), 200, x_rate=0.05)
    compiled, reference = _both(circuit, stimulus, record_nets=True)
    _assert_same_trace(compiled, reference)
    plain = LogicSimulator(circuit).run(stimulus)
    assert plain.outputs == compiled.outputs
    assert plain.states == compiled.states


class TestTpgReplay:
    """Synthesized TPGs, replayed from reset through both engines."""

    @staticmethod
    def _replay(design):
        stimulus = [(V1,)] + [(V0,)] * design.total_cycles
        _assert_same_trace(*_both(design.circuit, stimulus, record_nets=True))
        assert verify_tpg(design).ok

    def test_deterministic_weights(self):
        a1 = WeightAssignment.from_strings(["01", "0", "100", "1"])
        a2 = WeightAssignment.from_strings(["100", "00", "01", "0110"])
        a3 = WeightAssignment.from_strings(["1", "011", "1", "0"])
        self._replay(synthesize_tpg([a1, a2, a3], l_g=13))

    def test_with_lfsr(self):
        a1 = WeightAssignment.from_strings(["R", "01", "1"])
        a2 = WeightAssignment.from_strings(["100", "R", "R"])
        self._replay(
            synthesize_tpg([a1, a2], l_g=20, lfsr=LfsrSpec(width=6, seed=1))
        )


class TestEngineReuse:
    def test_generated_once_per_record_variant(self, s27, monkeypatch):
        calls = []
        generate = logicsim._generate_engine

        def counting(comp, record_nets):
            calls.append(record_nets)
            return generate(comp, record_nets)

        monkeypatch.setattr(logicsim, "_generate_engine", counting)
        sim = LogicSimulator(s27)
        rng = random.Random(3)
        for record in (False, True, False, True, False):
            stimulus = _random_stimulus(rng, len(s27.inputs), 10)
            _assert_same_trace(
                sim.run(stimulus, record_nets=record),
                _reference_run(sim.compiled, stimulus, record_nets=record),
            )
        assert calls == [False, True]


def _raises_same(circuit, stimulus, initial_state=None):
    """Both engines raise the same exception type with the same message."""
    sim = LogicSimulator(circuit)
    with pytest.raises(SimulationError) as compiled:
        sim.run(stimulus, initial_state)
    with pytest.raises(SimulationError) as reference:
        _reference_run(sim.compiled, stimulus, initial_state)
    assert type(compiled.value) is type(reference.value)
    assert str(compiled.value) == str(reference.value)
    return str(compiled.value)


class TestErrorParity:
    @pytest.mark.parametrize("u", [0, 3])
    @pytest.mark.parametrize("width", [0, 3, 5])
    def test_wrong_width_at_cycle(self, s27, u, width):
        stimulus = [(V0,) * 4] * u + [(V1,) * width] + [(V0,) * 4]
        message = _raises_same(s27, stimulus)
        assert message == (
            f"time {u}: pattern has {width} values, "
            "circuit has 4 primary inputs"
        )

    @pytest.mark.parametrize("u", [0, 2])
    @pytest.mark.parametrize("bad", [5, -1, 3, "1", None, 0.5, [1]])
    def test_bad_value_at_cycle(self, s27, u, bad):
        row = [V1, VX, V0, V1]
        row[2] = bad
        stimulus = [(V0,) * 4] * u + [tuple(row)]
        message = _raises_same(s27, stimulus)
        assert message == f"time {u}: bad ternary value {bad!r}"

    def test_first_bad_value_in_port_order(self, s27):
        message = _raises_same(s27, [(V0, 7, "x", V1)])
        assert message == "time 0: bad ternary value 7"

    def test_width_checked_before_values(self, s27):
        message = _raises_same(s27, [(9, 9, 9)])
        assert "pattern has 3 values" in message

    def test_wrong_initial_state_length(self, s27):
        message = _raises_same(s27, [(V0,) * 4], initial_state=[V0, V1])
        assert message == "initial state has 2 values, circuit has 3 flip-flops"

    @pytest.mark.parametrize("bad", [5, "1", None])
    def test_bad_initial_state_value(self, s27, bad):
        message = _raises_same(s27, [(V0,) * 4], initial_state=[V0, bad, V1])
        assert message == f"initial state: bad ternary value {bad!r}"


def _pack(values):
    """Rails of one ternary value per lane (lane ``k`` = bit ``k``)."""
    ones = zeros = 0
    for k, value in enumerate(values):
        if value == V1:
            ones |= 1 << k
        elif value == V0:
            zeros |= 1 << k
    return ones, zeros


def _lane(rails, k):
    """Lane ``k``'s ternary value in ``rails``."""
    ones, zeros = rails
    return V1 if ones >> k & 1 else V0 if zeros >> k & 1 else VX


class TestLanes:
    """Hypothesis: lane ``k`` of ``run_lanes`` is its own scalar run."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pi=st.integers(min_value=1, max_value=4),
        n_ff=st.integers(min_value=0, max_value=4),
        n_gates=st.integers(min_value=1, max_value=20),
        width=st.integers(min_value=1, max_value=70),
        length=st.integers(min_value=0, max_value=10),
    )
    def test_each_lane_is_its_own_run(
        self, seed, n_pi, n_ff, n_gates, width, length
    ):
        rng = random.Random(seed)
        circuit = _random_netlist(rng, n_pi, n_ff, n_gates)
        stimuli = [_random_stimulus(rng, n_pi, length) for _ in range(width)]
        initials = [
            [rng.choice(TERNARY) for _ in circuit.flops] for _ in range(width)
        ]
        stimulus = [
            tuple(
                _pack([stimuli[k][u][p] for k in range(width)])
                for p in range(n_pi)
            )
            for u in range(length)
        ]
        initial = [
            _pack([initials[k][f] for k in range(width)])
            for f in range(len(circuit.flops))
        ]
        sim = LogicSimulator(circuit)
        outputs, final = sim.run_lanes(stimulus, initial, width)
        assert len(outputs) == length
        mask = (1 << width) - 1
        for ones, zeros in [r for row in outputs for r in row] + list(final):
            assert not ones & zeros and not (ones | zeros) & ~mask
        idle = (V0,) * n_pi
        for k in range(width):
            # One cycle more: the last recorded state is the final one.
            reference = _reference_run(
                sim.compiled, stimuli[k] + [idle], initials[k]
            )
            lane_outputs = tuple(
                tuple(_lane(rails, k) for rails in row) for row in outputs
            )
            assert lane_outputs == reference.outputs[:length]
            assert tuple(_lane(r, k) for r in final) == reference.states[-1]

    def test_engine_generated_once(self, s27, monkeypatch):
        calls = []
        generate = logicsim._generate_lanes_engine

        def counting(comp):
            calls.append(comp)
            return generate(comp)

        monkeypatch.setattr(logicsim, "_generate_lanes_engine", counting)
        sim = LogicSimulator(s27)
        for width in (1, 3, 70):
            mask = (1 << width) - 1
            sim.run_lanes([((0, mask),) * 4] * 2, [(0, 0)] * 3, width)
        assert len(calls) == 1


class TestLaneErrors:
    def test_wrong_pattern_width(self, s27):
        with pytest.raises(SimulationError) as exc:
            LogicSimulator(s27).run_lanes(
                [((0, 1),) * 4, ((0, 1),) * 2], [(0, 0)] * 3, 1
            )
        assert str(exc.value) == (
            "time 1: pattern has 2 values, circuit has 4 primary inputs"
        )

    def test_wrong_initial_state_length(self, s27):
        with pytest.raises(SimulationError) as exc:
            LogicSimulator(s27).run_lanes([], [(0, 0)] * 2, 1)
        assert str(exc.value) == (
            "initial state has 2 values, circuit has 3 flip-flops"
        )

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one(self, s27, width):
        with pytest.raises(SimulationError, match="lane width must be at least 1"):
            LogicSimulator(s27).run_lanes([], [(0, 0)] * 3, width)

    @pytest.mark.parametrize(
        "rails",
        [
            (1, 1),  # lane 0 both 1 and 0
            (0b110, 0b011),  # lane 1 both 1 and 0
            (0b1000, 0),  # lane 3 outside a 3-lane mask
            (0, 1 << 70),
            (-1, 0),
            ("1", 0),
            (1,),
            None,
        ],
    )
    def test_bad_input_rails(self, s27, rails):
        row = [(0, 0b111)] * 4
        row[2] = rails
        with pytest.raises(SimulationError) as exc:
            LogicSimulator(s27).run_lanes(
                [((0, 0b111),) * 4, tuple(row)], [(0, 0)] * 3, 3
            )
        assert str(exc.value).startswith(f"time 1: input 2 rails {rails!r}")
        assert "3-lane mask" in str(exc.value)

    @pytest.mark.parametrize("rails", [(0b10, 0b10), (0b100, 0), (0, -2)])
    def test_bad_initial_rails(self, s27, rails):
        with pytest.raises(SimulationError) as exc:
            LogicSimulator(s27).run_lanes([], [(0, 0), rails, (0, 0)], 2)
        assert str(exc.value).startswith(
            f"initial state: flip-flop 1 rails {rails!r}"
        )

    def test_zero_cycles_return_the_initial_state(self, s27):
        initial = [(0b01, 0b10), (0, 0), (0b11, 0)]
        outputs, final = LogicSimulator(s27).run_lanes([], initial, 2)
        assert outputs == [] and final == tuple(initial)
