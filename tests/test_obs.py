"""Tests for observation-point insertion: greedy selection, OP(f)
computation, set covering, and the tradeoff sweep."""

from __future__ import annotations

import pytest

from repro.core import ProcedureConfig, select_weight_assignments
from repro.core.assignment import WeightAssignment
from repro.core.weight import RandomWeight
from repro.obs import (
    compute_op_sets,
    format_tradeoff,
    greedy_cover,
    greedy_select,
    observation_point_tradeoff,
)
from repro.sim import Fault, FaultSimulator


@pytest.fixture(scope="module")
def s27_procedure(s27, paper_t):
    # l_g = 10 keeps individual weighted sequences short enough that no
    # single assignment covers all 32 faults — the observation-point
    # tests need leftovers to work on.
    from repro.sim import collapse_faults

    return select_weight_assignments(
        s27, paper_t, collapse_faults(s27), ProcedureConfig(l_g=10)
    )


class TestGreedySelect:
    def test_covers_all_targets(self, s27, s27_procedure):
        picks = greedy_select(s27, s27_procedure)
        assert picks[-1].cumulative_detected == len(s27_procedure.target_faults)

    def test_marginal_gains_recorded(self, s27, s27_procedure):
        picks = greedy_select(s27, s27_procedure)
        running = 0
        for pick in picks:
            assert pick.new_faults
            running += len(pick.new_faults)
            assert pick.cumulative_detected == running

    def test_first_pick_is_max_cover(self, s27, s27_procedure):
        picks = greedy_select(s27, s27_procedure)
        sim = FaultSimulator(s27)
        targets = list(s27_procedure.target_faults)
        best = 0
        for entry in s27_procedure.omega:
            t_g = entry.assignment.generate(s27_procedure.l_g)
            best = max(best, len(sim.run(t_g.patterns, targets).detection_time))
        assert len(picks[0].new_faults) == best


class TestOpSets:
    def test_detected_faults_would_be_empty(self, s27, s27_procedure):
        # Compute OP sets for faults that ARE detected: their effects
        # reach lines trivially (including POs); this asserts shape only.
        picks = greedy_select(s27, s27_procedure)
        assignments = [picks[0].assignment]
        undetected = [
            f
            for f in s27_procedure.target_faults
            if f not in set(picks[0].new_faults)
        ]
        if not undetected:
            pytest.skip("first assignment already covers everything")
        op_sets = compute_op_sets(
            s27, assignments, undetected, s27_procedure.l_g
        )
        assert set(op_sets) == set(undetected)
        for lines in op_sets.values():
            for line in lines:
                assert line in s27

    def test_observing_op_line_detects_fault(self, s27, s27_procedure):
        # Soundness: add the observation point as a real PO and
        # re-simulate — the fault must now be detected.
        from repro.circuit import Circuit

        picks = greedy_select(s27, s27_procedure)
        assignments = [picks[0].assignment]
        undetected = [
            f
            for f in s27_procedure.target_faults
            if f not in set(picks[0].new_faults)
        ]
        if not undetected:
            pytest.skip("first assignment already covers everything")
        op_sets = compute_op_sets(s27, assignments, undetected, s27_procedure.l_g)
        checked = 0
        for fault, lines in op_sets.items():
            for line in sorted(lines)[:2]:
                observed = Circuit(
                    "s27obs",
                    list(s27.gates.values()),
                    list(s27.outputs) + ([line] if line not in s27.outputs else []),
                )
                t_g = assignments[0].generate(s27_procedure.l_g)
                result = FaultSimulator(observed).run(t_g.patterns, [fault])
                assert fault in result.detection_time, (fault, line)
                checked += 1
        assert checked > 0


class TestGreedyCover:
    def test_simple_cover(self):
        f1, f2, f3 = Fault("a", 0), Fault("a", 1), Fault("b", 0)
        op_sets = {f1: {"x"}, f2: {"x", "y"}, f3: {"y"}}
        result = greedy_cover(op_sets)
        assert set(result.lines) <= {"x", "y"}
        assert set(result.covered) == {f1, f2, f3}
        assert result.uncoverable == ()

    def test_uncoverable_reported(self):
        f1, f2 = Fault("a", 0), Fault("a", 1)
        result = greedy_cover({f1: {"x"}, f2: set()})
        assert result.uncoverable == (f2,)
        assert result.covered == (f1,)

    def test_greedy_prefers_big_lines(self):
        faults = [Fault(f"n{i}", 0) for i in range(5)]
        op_sets = {f: {"big"} for f in faults}
        op_sets[faults[0]] = {"big", "small"}
        result = greedy_cover(op_sets)
        assert result.lines == ("big",)

    def test_empty(self):
        result = greedy_cover({})
        assert result.lines == ()
        assert result.covered == ()


class TestTradeoff:
    def test_monotone_fault_efficiency(self, s27, s27_procedure):
        rows = observation_point_tradeoff(s27, s27_procedure)
        fes = [row.fault_efficiency for row in rows]
        assert fes == sorted(fes)
        assert rows[-1].fault_efficiency == 100.0
        assert rows[-1].n_observation_points == 0

    def test_with_obs_at_least_without(self, s27, s27_procedure):
        rows = observation_point_tradeoff(s27, s27_procedure)
        for row in rows:
            assert row.fault_efficiency_with_obs >= row.fault_efficiency

    def test_sequences_count_increments(self, s27, s27_procedure):
        rows = observation_point_tradeoff(s27, s27_procedure)
        assert [row.n_sequences for row in rows] == list(range(1, len(rows) + 1))

    def test_max_prefix(self, s27, s27_procedure):
        rows = observation_point_tradeoff(s27, s27_procedure, max_prefix=1)
        assert len(rows) == 1

    def test_format(self, s27, s27_procedure):
        rows = observation_point_tradeoff(s27, s27_procedure)
        text = format_tradeoff("s27", rows)
        assert "s27" in text
        assert "f.e." in text


class TestRandomWeightTradeoff:
    """An Ω entry with the pseudo-random weight: every row's OP sets are
    simulated with that entry's own generation rng."""

    @pytest.fixture(scope="class")
    def flow(self):
        from dataclasses import replace

        from repro import FlowConfig, run_full_flow

        flow = run_full_flow("s27", FlowConfig(procedure=ProcedureConfig(l_g=64)))
        first = flow.procedure.omega[0]
        weights = (RandomWeight(),) + first.assignment.weights[1:]
        omega = [replace(first, assignment=WeightAssignment(weights))]
        return flow, replace(flow.procedure, omega=omega + flow.procedure.omega[1:])

    def test_op_sets_use_each_picks_rng(self, flow, monkeypatch):
        import repro.obs.tradeoff as tradeoff

        flow, procedure = flow
        seen = []
        cover = tradeoff.greedy_cover

        def recorded(op_sets):
            seen.append(op_sets)
            return cover(op_sets)

        monkeypatch.setattr(tradeoff, "greedy_cover", recorded)
        rows = observation_point_tradeoff(flow.circuit, procedure)
        assert rows and seen
        picks = greedy_select(flow.circuit, procedure)
        assert picks[0].assignment.has_random
        assert [p.assignment for p in picks] == [
            procedure.omega[p.index].assignment for p in picks
        ]
        covered = set()
        for k, (pick, op_sets) in enumerate(zip(picks, seen), start=1):
            covered |= set(pick.new_faults)
            undetected = [
                f for f in procedure.target_faults if f not in covered
            ]
            assert op_sets == compute_op_sets(
                flow.circuit,
                [p.assignment for p in picks[:k]],
                undetected,
                procedure.l_g,
                rngs=[procedure.generation_rng(p.index) for p in picks[:k]],
            )
