"""Negative-path and exactness tests for :func:`repro.hw.verify.verify_tpg`.

The replay check's value is in what it reports when the hardware is
*wrong*, so these tests corrupt synthesized designs on purpose — an
inverted FSM output column, swapped output ports, software/hardware Ω
drift — and pin the mismatch records (assignment, cycle, port, values)
that come back.

:func:`verify_tpg` replays every assignment window as one lane of a
single ``L_G``-cycle pass and proves that the windows chain.
:func:`_serial_verify` keeps the serial replay of all ``m * L_G + 1``
cycles as its oracle: a hypothesis property over random designs,
corrupted ones included, and a design whose every guessed window start
is wrong prove that both return the same :class:`TpgVerification`.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, Gate, GateType
from repro.core import WeightAssignment
from repro.errors import HardwareError
from repro.flows import flow_for
from repro.hw import LfsrSpec, synthesize_tpg, verify_tpg
from repro.hw.verify import TpgMismatch, TpgVerification
from repro.sim import LogicSimulator, V0, V1

#: Inverting counterpart of each gate function (same arity).
_INVERT = {
    GateType.AND: GateType.NAND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.NOR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.BUF: GateType.NOT,
    GateType.NOT: GateType.BUF,
}


def _replace_gate(design, name, gtype, fanins=None):
    """Rebuild the TPG netlist with gate ``name`` changed."""
    gates = []
    for gate in design.circuit.gates.values():
        if gate.name == name:
            gate = Gate(
                gate.name, gtype, gate.fanins if fanins is None else fanins
            )
        gates.append(gate)
    corrupted = Circuit(design.circuit.name, gates, design.circuit.outputs)
    return dataclasses.replace(design, circuit=corrupted)


def _invert_gate(design, name):
    """Rebuild the TPG netlist with gate ``name``'s function inverted."""
    return _replace_gate(design, name, _INVERT[design.circuit.gate(name).gtype])


def _invert_port(design, port_index):
    """Rebuild the TPG netlist with one output column's driver inverted."""
    return _invert_gate(design, design.output_ports[port_index])


def _serial_verify(design, max_mismatches=16):
    """The serial replay: ``reset = 1`` for one cycle, then all
    ``m * L_G`` cycles in a row, output cycle ``1 + j * L_G + t``
    compared with value ``t`` of assignment ``j``'s sequence."""
    total = design.total_cycles
    stimulus = [(V1,)] + [(V0,)] * total
    trace = LogicSimulator(design.circuit).run(stimulus)

    expected_streams = [
        design.expected_stream(j) for j in range(design.n_assignments)
    ]

    mismatches = []
    for j, stream in enumerate(expected_streams):
        for t in range(design.l_g):
            actual = trace.outputs[1 + j * design.l_g + t]
            expected = stream[t]
            for port, (e, a) in enumerate(zip(expected, actual)):
                if e != a:
                    mismatches.append(
                        TpgMismatch(
                            assignment_index=j,
                            time=t,
                            port=port,
                            expected=e,
                            actual=a,
                        )
                    )
                    if len(mismatches) >= max_mismatches:
                        return TpgVerification(
                            ok=False,
                            cycles_checked=total,
                            mismatches=tuple(mismatches),
                        )
    return TpgVerification(
        ok=not mismatches,
        cycles_checked=total,
        mismatches=tuple(mismatches),
    )


@pytest.fixture()
def simulated_cycles(monkeypatch):
    """The cycle count of every ``LogicSimulator.run`` / ``run_lanes``
    call, in call order."""
    calls = []
    for method in ("run", "run_lanes"):
        original = getattr(LogicSimulator, method)

        def counting(self, stimulus, *args, _original=original, **kwargs):
            calls.append(len(stimulus))
            return _original(self, stimulus, *args, **kwargs)

        monkeypatch.setattr(LogicSimulator, method, counting)
    return calls


class TestCorruptedColumn:
    def test_inverted_fsm_column_reports_every_cycle(self):
        # Input 0 follows the period-2 subsequence 01; input 1 is held
        # at 1.  Inverting port 0's driver flips every emitted value of
        # that column, so all l_g cycles of the single assignment must
        # be reported, and only on port 0.
        wa = WeightAssignment.from_strings(["01", "1"])
        design = _invert_port(synthesize_tpg([wa], l_g=8), 0)

        result = verify_tpg(design)
        assert not result.ok
        assert result.cycles_checked == design.total_cycles
        assert {m.port for m in result.mismatches} == {0}
        assert {m.assignment_index for m in result.mismatches} == {0}
        assert sorted(m.time for m in result.mismatches) == list(range(8))
        for m in result.mismatches:
            assert m.expected != m.actual

    def test_mismatch_localizes_assignment_window(self):
        # Two assignments differ only in input 1's weight; breaking
        # port 1 breaks both windows, and the mismatch records must
        # name each window separately.
        a0 = WeightAssignment.from_strings(["01", "1"])
        a1 = WeightAssignment.from_strings(["01", "0"])
        design = _invert_port(synthesize_tpg([a0, a1], l_g=4), 1)

        result = verify_tpg(design, max_mismatches=64)
        assert not result.ok
        assert {m.port for m in result.mismatches} == {1}
        assert {m.assignment_index for m in result.mismatches} == {0, 1}
        by_assignment = {}
        for m in result.mismatches:
            by_assignment.setdefault(m.assignment_index, []).append(m.time)
        assert sorted(by_assignment[0]) == list(range(4))
        assert sorted(by_assignment[1]) == list(range(4))

    def test_mismatch_value_fields(self):
        # Weight "1" holds the column at 1; the inverted hardware
        # emits 0, so every record reads expected=1, actual=0.
        wa = WeightAssignment.from_strings(["1"])
        design = _invert_port(synthesize_tpg([wa], l_g=4), 0)

        result = verify_tpg(design)
        assert len(result.mismatches) == 4
        for m in result.mismatches:
            assert (m.expected, m.actual) == (1, 0)


class TestTruncationAndDrift:
    def test_max_mismatches_truncates(self):
        wa = WeightAssignment.from_strings(["1", "0"])
        design = _invert_port(
            _invert_port(synthesize_tpg([wa], l_g=8), 0), 1
        )
        result = verify_tpg(design, max_mismatches=5)
        assert not result.ok
        assert len(result.mismatches) == 5
        full = verify_tpg(design, max_mismatches=1000)
        assert len(full.mismatches) == 16

    def test_omega_drift_detected(self):
        # Software/hardware drift: the netlist was built for weight 0
        # on input 1, but the design claims weight 1 — exactly the kind
        # of stale-artifact corruption a reloaded design can carry.
        built = WeightAssignment.from_strings(["01", "0"])
        claimed = WeightAssignment.from_strings(["01", "1"])
        design = synthesize_tpg([built], l_g=6)
        drifted = dataclasses.replace(design, assignments=(claimed,))

        result = verify_tpg(drifted)
        assert not result.ok
        assert {m.port for m in result.mismatches} == {1}
        assert all(m.expected == 1 and m.actual == 0
                   for m in result.mismatches)

    def test_clean_design_has_no_mismatches(self):
        wa = WeightAssignment.from_strings(["01", "1", "100"])
        result = verify_tpg(synthesize_tpg([wa], l_g=12))
        assert result.ok
        assert result.mismatches == ()
        assert result.cycles_checked == 12


class TestPortWidth:
    @pytest.mark.parametrize("ports, omega", [(2, 3), (3, 2)])
    def test_omega_width_differs_from_outputs(
        self, ports, omega, simulated_cycles
    ):
        # The netlist was built for ``ports`` inputs, the design claims
        # an Ω ``omega`` inputs wide: zipping the rows would silently
        # compare the shorter of the two, so the check refuses before
        # it simulates anything.
        weights = ["01", "1", "100"]
        built = WeightAssignment.from_strings(weights[:ports])
        claimed = WeightAssignment.from_strings(weights[:omega])
        design = dataclasses.replace(
            synthesize_tpg([built], l_g=8), assignments=(claimed,)
        )
        with pytest.raises(
            HardwareError, match=rf"drives {omega} inputs.* has {ports} outputs"
        ):
            verify_tpg(design)
        assert simulated_cycles == []


def _random_weight(rng, lfsr):
    if lfsr is not None and rng.random() < 0.25:
        return "R"
    return "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))


class TestSerialOracle:
    """Hypothesis: the lane replay equals the serial replay, record for
    record, on clean and corrupted designs."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=8),
        l_g=st.integers(min_value=1, max_value=40),
        lfsr=st.booleans(),
        corrupt=st.booleans(),
        omega=st.sampled_from(["keep", "reverse", "drop"]),
        max_mismatches=st.sampled_from([1, 5, 16, 1000]),
    )
    def test_equals_serial_replay(
        self, seed, width, m, l_g, lfsr, corrupt, omega, max_mismatches
    ):
        rng = random.Random(seed)
        spec = (
            LfsrSpec(width=rng.randint(2, 8), seed=rng.randint(1, 255))
            if lfsr
            else None
        )
        assignments = [
            WeightAssignment.from_strings(
                [_random_weight(rng, spec) for _ in range(width)]
            )
            for _ in range(m)
        ]
        design = synthesize_tpg(assignments, l_g, lfsr=spec)
        if corrupt:
            # One inverted gate anywhere: counters, LFSR, FSM output
            # logic, selection multiplexers or output buffers.
            names = sorted(
                gate.name
                for gate in design.circuit.gates.values()
                if gate.gtype in _INVERT
            )
            design = _invert_gate(design, rng.choice(names))
        if omega == "reverse":
            design = dataclasses.replace(
                design, assignments=design.assignments[::-1]
            )
        elif omega == "drop":
            kept = list(design.assignments)
            del kept[rng.randrange(len(kept))]
            design = dataclasses.replace(design, assignments=tuple(kept))
        if not design.assignments:
            # Nothing to compare: the serial replay would pass it with
            # zero cycles checked; verification rejects it instead.
            with pytest.raises(HardwareError, match="no assignments"):
                verify_tpg(design, max_mismatches)
            return
        assert verify_tpg(design, max_mismatches) == _serial_verify(
            design, max_mismatches
        )


class TestWindowChain:
    @pytest.mark.parametrize("lfsr", [None, LfsrSpec(width=5, seed=9)])
    def test_correct_design_is_one_pass(self, lfsr, simulated_cycles):
        a0 = WeightAssignment.from_strings(["01", "R" if lfsr else "1", "100"])
        a1 = WeightAssignment.from_strings(["1", "0110", "R" if lfsr else "0"])
        a2 = WeightAssignment.from_strings(["100", "01", "1"])
        design = synthesize_tpg([a0, a1, a2], l_g=11, lfsr=lfsr)
        result = verify_tpg(design)
        assert simulated_cycles == [1, 11]
        assert result == TpgVerification(ok=True, cycles_checked=33, mismatches=())

    def test_every_guessed_start_wrong(self, simulated_cycles):
        # Cut the assignment counter's increment (its low bit's XOR
        # becomes a buffer): the counter holds at 0, so every window
        # replays Ω_0 and window j >= 1 starts with the counter at 0,
        # not at j.  No guessed start holds; each window is proven in a
        # pass of its own, from its predecessor's real end state.
        strings = (
            ["01", "1"], ["1", "0"], ["100", "01"], ["0", "1"], ["01", "0"]
        )
        design = synthesize_tpg(
            [WeightAssignment.from_strings(s) for s in strings], l_g=6
        )
        xor = next(
            gate.name
            for gate in design.circuit.gates.values()
            if gate.gtype is GateType.XOR and "sel_q0" in gate.fanins
        )
        broken = _replace_gate(design, xor, GateType.BUF, ("sel_q0",))
        for limit in (1, 5, 16, 1000):
            simulated_cycles.clear()
            result = verify_tpg(broken, max_mismatches=limit)
            passes = list(simulated_cycles)
            assert result == _serial_verify(broken, limit)
            assert not result.ok
        assert passes == [1] + [6] * len(strings)
        assert {m.assignment_index for m in result.mismatches} == {1, 2, 3, 4}

    def test_correct_g208_design_replays_lg_plus_one_cycles(
        self, simulated_cycles
    ):
        flow = flow_for("g208")
        design = synthesize_tpg(
            list(flow.reverse_order.kept), flow.procedure.l_g,
            flow.circuit.inputs,
        )
        assert design.n_assignments > 1
        simulated_cycles.clear()
        result = verify_tpg(design)
        assert result.ok and result.cycles_checked == design.total_cycles
        assert sum(simulated_cycles) == design.l_g + 1
