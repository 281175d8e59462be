"""Tests for the fault model and equivalence collapsing."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitBuilder
from repro.errors import FaultModelError
from repro.sim import Fault, all_faults, collapse_faults, fault_name
from repro.sim.collapse import collapse_ratio, equivalence_classes
from repro.sim.faults import validate_fault


fault_strategy = st.builds(
    Fault,
    net=st.sampled_from(["G1", "G10", "G2", "a", "b_1"]),
    stuck=st.integers(min_value=0, max_value=1),
) | st.builds(
    Fault,
    net=st.sampled_from(["G1", "G10", "G2", "a"]),
    stuck=st.integers(min_value=0, max_value=1),
    gate=st.sampled_from(["", "G1", "G15", "x"]),
    pin=st.integers(min_value=0, max_value=3),
)


class TestFaultOrder:
    """``Fault.__lt__`` compares a key it builds once per fault; the
    order and every other view of a fault are the ``sort_key`` ones."""

    @settings(max_examples=200, deadline=None)
    @given(faults=st.lists(fault_strategy, max_size=40))
    def test_sorted_is_sort_key_order(self, faults):
        assert sorted(faults) == sorted(faults, key=lambda f: f.sort_key)
        # Twice: the second sort reads the keys the first one built.
        assert sorted(faults) == sorted(faults, key=lambda f: f.sort_key)

    def test_key_is_no_field(self):
        fault = Fault("G8", 1, gate="G15", pin=1)
        fresh = Fault("G8", 1, gate="G15", pin=1)
        before = pickle.dumps(fault)
        assert fault < Fault("G9", 0)  # builds the key
        assert [f.name for f in dataclasses.fields(Fault)] == [
            "net", "stuck", "gate", "pin"
        ]
        assert repr(fault) == repr(fresh)
        assert fault == fresh and hash(fault) == hash(fresh)
        assert dataclasses.asdict(fault) == dataclasses.asdict(fresh)
        assert pickle.dumps(fault) == before == pickle.dumps(fresh)
        assert copy.deepcopy(fault) == fault
        assert pickle.loads(before) < Fault("G9", 0)


class TestFault:
    def test_stem_fault(self):
        f = Fault("G8", 0)
        assert not f.is_branch
        assert fault_name(f) == "G8/0"

    def test_branch_fault(self):
        f = Fault("G8", 1, gate="G15", pin=1)
        assert f.is_branch
        assert fault_name(f) == "G8->G15.1/1"

    def test_bad_stuck_value_raises(self):
        with pytest.raises(FaultModelError):
            Fault("a", 2)

    def test_half_branch_raises(self):
        with pytest.raises(FaultModelError):
            Fault("a", 0, gate="g")

    def test_ordering_total(self):
        faults = [Fault("b", 1), Fault("a", 0, gate="g", pin=0), Fault("a", 0)]
        ordered = sorted(faults)
        assert ordered[0] == Fault("a", 0)  # stem before branch of same net

    def test_validate_against_circuit(self, s27):
        validate_fault(s27, Fault("G8", 0))
        validate_fault(s27, Fault("G8", 0, gate="G15", pin=1))
        with pytest.raises(FaultModelError):
            validate_fault(s27, Fault("nope", 0))
        with pytest.raises(FaultModelError):
            validate_fault(s27, Fault("G8", 0, gate="G15", pin=0))  # wrong pin


class TestUniverse:
    def test_s27_counts(self, s27):
        universe = all_faults(s27)
        stems = [f for f in universe if not f.is_branch]
        branches = [f for f in universe if f.is_branch]
        assert len(stems) == 34   # 17 nets x 2
        assert len(branches) == 18
        assert len(universe) == 52

    def test_branches_only_on_fanout_stems(self, s27):
        for fault in all_faults(s27):
            if fault.is_branch:
                assert s27.fanout_count(fault.net) > 1

    def test_constants_excluded(self):
        b = CircuitBuilder("c")
        b.input("a")
        b.const1("one")
        b.and_("y", "a", "one")
        b.output("y")
        universe = all_faults(b.build())
        assert not any(f.net == "one" and not f.is_branch for f in universe)

    def test_universe_sorted_and_unique(self, s27):
        universe = all_faults(s27)
        assert universe == sorted(universe)
        assert len(set(universe)) == len(universe)


class TestCollapse:
    def test_s27_collapses_to_32(self, s27):
        assert len(collapse_faults(s27)) == 32

    def test_classes_partition_universe(self, s27):
        classes = equivalence_classes(s27)
        members = [f for cls in classes for f in cls]
        assert sorted(members) == all_faults(s27)

    def test_representatives_are_class_minima(self, s27):
        classes = equivalence_classes(s27)
        reps = set(collapse_faults(s27))
        for cls in classes:
            assert min(cls) in reps

    def test_inverter_chain_collapses(self):
        # a -> NOT -> NOT -> y: 6 stem faults collapse to 2 classes.
        b = CircuitBuilder("chain")
        b.input("a")
        b.not_("m", "a")
        b.not_("y", "m")
        b.output("y")
        assert len(collapse_faults(b.build())) == 2

    def test_and_gate_collapse(self):
        # y = AND(a, b): {a/0, b/0, y/0} is one class -> 4 classes total
        # out of 6 faults.
        b = CircuitBuilder("and2")
        b.input("a")
        b.input("b")
        b.and_("y", "a", "b")
        b.output("y")
        assert len(collapse_faults(b.build())) == 4

    def test_xor_does_not_collapse(self):
        b = CircuitBuilder("xor2")
        b.input("a")
        b.input("b")
        b.xor("y", "a", "b")
        b.output("y")
        assert len(collapse_faults(b.build())) == 6

    def test_no_collapse_across_flops(self):
        # d -> DFF -> q: the D-side and Q-side faults stay distinct.
        b = CircuitBuilder("ff")
        b.input("d0")
        b.buf("d", "d0")
        b.dff("q", "d")
        b.output("q")
        collapsed = collapse_faults(b.build())
        # d0/d collapse through the BUF; q stays separate: 4 classes.
        assert len(collapsed) == 4

    def test_collapse_ratio(self, s27):
        assert collapse_ratio(s27) == pytest.approx(32 / 52)

    def test_deterministic(self, s27):
        assert collapse_faults(s27) == collapse_faults(s27)
