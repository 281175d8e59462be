"""Tests for CircuitBuilder, the synthetic generator, the embedded
library, and circuit statistics."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuit import (
    CircuitBuilder,
    available_circuits,
    circuit_stats,
    load_circuit,
)
from repro.circuit.bench import write_bench
from repro.circuit.gates import GateType
from repro.circuit.library import synth_spec
from repro.circuit.stats import feedback_flops
from repro.circuit.synth import SynthSpec, synthesize
from repro.errors import NetlistError, ReproError


class TestBuilder:
    def test_all_gate_helpers(self):
        b = CircuitBuilder("all")
        b.input("a")
        b.input("b")
        b.const0("z0")
        b.const1("z1")
        b.and_("g1", "a", "b")
        b.nand("g2", "a", "b")
        b.or_("g3", "a", "b")
        b.nor("g4", "a", "b")
        b.xor("g5", "a", "b")
        b.xnor("g6", "a", "b")
        b.not_("g7", "a")
        b.buf("g8", "b")
        b.dff("q", "g1")
        b.output("g8")
        circuit = b.build()
        assert circuit.gate("g6").gtype is GateType.XNOR
        assert circuit.gate("z1").gtype is GateType.CONST1

    def test_duplicate_net_raises_immediately(self):
        b = CircuitBuilder("dup")
        b.input("a")
        with pytest.raises(NetlistError):
            b.input("a")

    def test_forward_reference_allowed(self):
        b = CircuitBuilder("fwd")
        b.input("a")
        b.not_("y", "later")  # declared below
        b.buf("later", "a")
        b.output("y")
        circuit = b.build()
        assert circuit.gate("y").fanins == ("later",)


#: Leading hex digits of the SHA-256 of each library circuit's
#: ``write_bench`` text.
LIBRARY_BENCH_SHA256 = {
    "s27": "edfce515c1a1b73f",
    "g208": "ef6695941ba4f7d6",
    "g298": "d94493615c1ee162",
    "g344": "157ce1cbe84fa327",
    "g382": "7b445824df7917a9",
    "g386": "536cf78b37a1205f",
    "g400": "4797224ddc09b416",
    "g420": "9186b063d2eb0cf0",
    "g444": "bee7d1869f327984",
    "g526": "beec7e99bcb708bd",
    "g641": "b8db6ca918a71f3e",
    "g820": "d0b917bfb503612f",
    "g1196": "a52b43292797a5f4",
    "g1423": "cd2a3e6438e72500",
    "g1488": "cfe6a01f52b0195a",
}


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec("t", n_pi=4, n_po=2, n_ff=3, n_gates=30, seed=5)
        a = synthesize(spec)
        b = synthesize(spec)
        assert {n: (g.gtype, g.fanins) for n, g in a.gates.items()} == {
            n: (g.gtype, g.fanins) for n, g in b.gates.items()
        }

    def test_different_seeds_differ(self):
        a = synthesize(SynthSpec("t", 4, 2, 3, 30, seed=5))
        b = synthesize(SynthSpec("t", 4, 2, 3, 30, seed=6))
        assert {n: (g.gtype, g.fanins) for n, g in a.gates.items()} != {
            n: (g.gtype, g.fanins) for n, g in b.gates.items()
        }

    def test_interface_sizes(self):
        circuit = synthesize(SynthSpec("t", n_pi=7, n_po=3, n_ff=5, n_gates=50, seed=1))
        assert len(circuit.inputs) == 7
        assert len(circuit.flops) == 5
        # POs: requested count, plus possibly one XOR-observer output.
        assert len(circuit.outputs) in (3, 4)

    def test_no_dangling_logic(self):
        circuit = synthesize(SynthSpec("t", 5, 2, 4, 60, seed=9))
        for net in circuit.combinational_order:
            assert circuit.fanout_count(net) > 0 or circuit.is_output(net)

    def test_flops_have_feedback(self):
        circuit = synthesize(SynthSpec("t", 5, 2, 6, 80, seed=3))
        # At least one flop participates in sequential feedback.
        assert feedback_flops(circuit)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize(SynthSpec("t", n_pi=0, n_po=1, n_ff=1, n_gates=10))
        with pytest.raises(ValueError):
            synthesize(SynthSpec("t", n_pi=2, n_po=5, n_ff=1, n_gates=2))

    @settings(max_examples=60, deadline=None)
    @given(
        n_pi=st.integers(min_value=1, max_value=4),
        n_po=st.integers(min_value=1, max_value=6),
        n_ff=st.integers(min_value=0, max_value=8),
        n_gates=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    # Two outputs, one late gate left after the flip-flop tap: the taps
    # widen to earlier gates instead of repeating one, which the
    # netlist rejects as a primary output listed twice.
    @example(n_pi=3, n_po=2, n_ff=1, n_gates=3, seed=1)
    def test_every_valid_spec_builds(self, n_pi, n_po, n_ff, n_gates, seed):
        n_gates = max(n_gates, n_po, n_ff)
        circuit = synthesize(SynthSpec("x", n_pi, n_po, n_ff, n_gates, seed))
        assert len(set(circuit.outputs)) == len(circuit.outputs)
        assert len([n for n in circuit.outputs if n.startswith("n")]) == n_po

    def test_library_netlists_unchanged(self):
        """Every library stand-in keeps its exact netlist text: output
        taps widen past the late gates only for specs with too few."""
        digests = {
            name: hashlib.sha256(
                write_bench(load_circuit(name)).encode()
            ).hexdigest()[:16]
            for name in available_circuits()
        }
        assert digests == LIBRARY_BENCH_SHA256


class TestLibrary:
    def test_available_lists_s27_first(self):
        names = available_circuits()
        assert names[0] == "s27"
        assert "g208" in names

    def test_load_unknown_raises(self):
        with pytest.raises(ReproError, match="unknown circuit"):
            load_circuit("s9999")

    def test_cache_returns_same_object(self):
        assert load_circuit("s27") is load_circuit("s27")

    def test_stand_in_interface_matches_iscas(self):
        # g208 mirrors s208: 10 PI, 1 PO (+observer), 8 DFF.
        g = load_circuit("g208")
        assert len(g.inputs) == 10
        assert len(g.flops) == 8
        spec = synth_spec("g208")
        assert spec.n_gates == 96

    def test_synth_spec_unknown_raises(self):
        with pytest.raises(ReproError):
            synth_spec("s27")

    @pytest.mark.parametrize("name", ["g298", "g344", "g386"])
    def test_stand_ins_build(self, name):
        circuit = load_circuit(name)
        assert len(circuit.inputs) >= 3
        assert circuit.depth >= 2


class TestStats:
    def test_s27_stats(self, s27):
        stats = circuit_stats(s27)
        assert stats.n_pi == 4
        assert stats.n_po == 1
        assert stats.n_ff == 3
        assert stats.n_gates == 10
        assert stats.n_nets == 17
        assert dict(stats.gate_mix)["NOR"] == 4

    def test_describe(self, s27):
        text = circuit_stats(s27).describe()
        assert "s27" in text and "4 PI" in text

    def test_feedback_flops_s27(self, s27):
        # All three s27 flops sit in feedback loops.
        assert set(feedback_flops(s27)) == {"G5", "G6", "G7"}
