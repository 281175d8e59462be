"""Tests for ternary values and the reference logic simulator."""

from __future__ import annotations

import pytest

from repro.circuit import CircuitBuilder
from repro.errors import SimulationError
from repro.sim import LogicSimulator, V0, V1, VX
from repro.sim.values import (
    and_reduce,
    invert,
    is_binary,
    or_reduce,
    resolve_char,
    to_char,
    xor_reduce,
)


class TestTernaryScalars:
    def test_invert(self):
        assert invert(V0) == V1
        assert invert(V1) == V0
        assert invert(VX) == VX

    def test_and_controlling_zero_beats_x(self):
        assert and_reduce([V0, VX]) == V0
        assert and_reduce([VX, V1]) == VX
        assert and_reduce([V1, V1]) == V1

    def test_or_controlling_one_beats_x(self):
        assert or_reduce([V1, VX]) == V1
        assert or_reduce([VX, V0]) == VX
        assert or_reduce([V0, V0]) == V0

    def test_xor_any_x_gives_x(self):
        assert xor_reduce([V1, VX]) == VX
        assert xor_reduce([V1, V1]) == V0
        assert xor_reduce([V1, V0, V1]) == V0

    def test_is_binary(self):
        assert is_binary(V0) and is_binary(V1) and not is_binary(VX)

    def test_char_round_trip(self):
        for v in (V0, V1, VX):
            assert resolve_char(to_char(v)) == v
        assert resolve_char("X") == VX

    def test_bad_char_raises(self):
        with pytest.raises(ValueError):
            resolve_char("2")
        with pytest.raises(ValueError):
            to_char(7)


class TestLogicSimulator:
    def test_combinational_truth(self, comb_circuit):
        sim = LogicSimulator(comb_circuit)
        # y = NAND(a, OR(b, c))
        cases = {
            (V1, V1, V0): V0,
            (V1, V0, V0): V1,
            (V0, V1, V1): V1,
            (V1, VX, V0): VX,
            (V0, VX, VX): V1,  # controlling 0 on the NAND
        }
        trace = sim.run(list(cases))
        for pattern, expected in zip(cases, trace.outputs):
            assert expected == (cases[pattern],)

    def test_initial_state_is_x(self, toggle_circuit):
        sim = LogicSimulator(toggle_circuit)
        trace = sim.run([(V0,), (V1,), (V0,)])
        # q starts X; XOR with anything keeps it X forever.
        assert all(out == (VX,) for out in trace.outputs)

    def test_explicit_initial_state(self, toggle_circuit):
        sim = LogicSimulator(toggle_circuit)
        trace = sim.run([(V1,), (V1,), (V0,)], initial_state=[V0])
        # q: 0 ->1 ->0 ->0 (PO shows the present state each cycle)
        assert [o[0] for o in trace.outputs] == [V0, V1, V0]

    def test_initialization_through_and(self, settable_circuit):
        sim = LogicSimulator(settable_circuit)
        trace = sim.run([(V0, V0), (V1, V1), (V0, V0)])
        # cycle0: q = X; cycle1: q = AND(0,0) = 0; cycle2: q = AND(1,1) = 1.
        assert [o[0] for o in trace.outputs] == [VX, V0, V1]
        # nq mirrors it inverted.
        assert [o[1] for o in trace.outputs] == [VX, V1, V0]

    def test_states_in_trace(self, settable_circuit):
        trace = LogicSimulator(settable_circuit).run([(V1, V1), (V0, V0)])
        assert trace.states[0] == (VX,)
        assert trace.states[1] == (V1,)

    def test_record_nets(self, comb_circuit):
        trace = LogicSimulator(comb_circuit).run([(V1, V1, V1)], record_nets=True)
        assert len(trace.nets) == 1
        assert len(trace.nets[0]) == len(comb_circuit)

    def test_wrong_width_raises(self, comb_circuit):
        with pytest.raises(SimulationError, match="pattern has"):
            LogicSimulator(comb_circuit).run([(V1, V1)])

    def test_bad_value_raises(self, comb_circuit):
        with pytest.raises(SimulationError, match="bad ternary"):
            LogicSimulator(comb_circuit).run([(V1, V1, 5)])

    def test_wrong_state_width_raises(self, toggle_circuit):
        with pytest.raises(SimulationError, match="initial state"):
            LogicSimulator(toggle_circuit).run([(V1,)], initial_state=[V0, V0])

    @pytest.mark.parametrize(
        "state, bad", [([5, 0, 7], 5), (["1", 0, 1], "1"), ([0, 1, None], None)]
    )
    def test_bad_state_value_raises(self, s27, state, bad):
        with pytest.raises(SimulationError) as err:
            LogicSimulator(s27).run([(V0, V0, V0, V0)], initial_state=state)
        assert str(err.value) == f"initial state: bad ternary value {bad!r}"
        assert "\n" not in str(err.value)

    def test_constants(self):
        b = CircuitBuilder("c")
        b.input("a")
        b.const1("one")
        b.const0("zero")
        b.and_("y", "a", "one")
        b.or_("z", "a", "zero")
        b.output("y")
        b.output("z")
        trace = LogicSimulator(b.build()).run([(V1,), (V0,)])
        assert trace.outputs == ((V1, V1), (V0, V0))

    def test_xnor_and_buf(self):
        b = CircuitBuilder("c")
        b.input("a")
        b.input("b")
        b.xnor("y", "a", "b")
        b.buf("z", "a")
        b.output("y")
        b.output("z")
        trace = LogicSimulator(b.build()).run([(V1, V1), (V1, V0), (VX, V1)])
        assert [o[0] for o in trace.outputs] == [V1, V0, VX]
        assert [o[1] for o in trace.outputs] == [V1, V1, VX]

    def test_len_of_trace(self, comb_circuit):
        trace = LogicSimulator(comb_circuit).run([(V0, V0, V0)] * 5)
        assert len(trace) == 5
