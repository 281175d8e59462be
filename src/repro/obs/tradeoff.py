"""The observation-point tradeoff sweep (Tables 7-16).

For every prefix size ``k`` of the greedy assignment order, the sweep
reports the paper's row: number of sequences (``seq``), subsequences
(``sub``), longest subsequence (``len``), fault efficiency before
observation points (``f.e.``), observation points added (``obs``), and
fault efficiency with them (final ``f.e.``).

Fault efficiency is the paper's definition: faults detected by
``Ω_lim`` divided by faults detected by ``Ω`` (the full target set,
since ``Ω`` covers it by construction), in percent.

``OP(f)`` under a prefix is the union of ``f``'s lines under each of its
sequences, and a fault's lines under one sequence do not depend on the
faults simulated beside it.  So the sweep simulates each pick's sequence
once, over the faults the first row using it leaves undetected (every
later row leaves a subset of them), and unions those line sets per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.core.procedure import ProcedureResult
from repro.core.weight import Weight
from repro.obs.cover import greedy_cover
from repro.obs.oppoints import compute_op_sets
from repro.obs.selection import greedy_select
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault
from repro.trace import traced
from repro.util.tables import format_table


@dataclass(frozen=True)
class TradeoffRow:
    """One row of a Table 7-16 style tradeoff table.

    Attributes
    ----------
    n_sequences / n_subsequences / max_length:
        Size of ``Ω_lim`` (the ``seq`` / ``sub`` / ``len`` columns).
    fault_efficiency:
        Percent of target faults ``Ω_lim`` detects at the POs.
    n_observation_points:
        Observation points the covering procedure added (``obs``).
    fault_efficiency_with_obs:
        Percent detected once those points are observed (final
        ``f.e.``; can stay below 100 when some faults' effects never
        reach any line).
    observation_points:
        The selected lines themselves.
    """

    n_sequences: int
    n_subsequences: int
    max_length: int
    fault_efficiency: float
    n_observation_points: int
    fault_efficiency_with_obs: float
    observation_points: tuple[str, ...]


def observation_point_tradeoff(
    circuit: Circuit,
    procedure: ProcedureResult,
    max_prefix: int | None = None,
    stop_at_full: bool = True,
    compiled: CompiledCircuit | None = None,
    runtime=None,
) -> List[TradeoffRow]:
    """Run the Section-5 observation-point experiment.

    Parameters
    ----------
    circuit:
        The circuit under test.
    procedure:
        The completed selection procedure (its ``Ω``, *before*
        reverse-order simulation, is the pick pool — as in the paper).
    max_prefix:
        Largest ``Ω_lim`` size to evaluate (default: the full greedy
        order).
    stop_at_full:
        Stop after the first row achieving 100% fault efficiency
        without observation points (the tables' last row).
    compiled:
        Optional pre-compiled circuit to reuse.
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext` for
        cached / parallel fault simulation.
    """
    comp = compiled or compile_circuit(circuit)
    with traced(runtime, "greedy_select", circuit=circuit.name):
        picks = greedy_select(circuit, procedure, comp, runtime=runtime)
    if max_prefix is not None:
        picks = picks[:max_prefix]
    n_targets = len(procedure.target_faults)
    if not n_targets:
        return []

    rows: List[TradeoffRow] = []
    covered: Set[Fault] = set()
    pick_lines: List[Dict[Fault, Set[str]]] = []
    for k, pick in enumerate(picks, start=1):
        covered |= set(pick.new_faults)
        assignments = [p.assignment for p in picks[:k]]
        undetected = [f for f in procedure.target_faults if f not in covered]
        fe = 100.0 * len(covered) / n_targets

        with traced(runtime, "tradeoff_row", k=k, undetected=len(undetected)):
            if undetected:
                with traced(runtime, "op_sets", k=k):
                    pick_lines.append(
                        compute_op_sets(
                            circuit,
                            [pick.assignment],
                            undetected,
                            procedure.l_g,
                            rngs=[procedure.generation_rng(pick.index)],
                            compiled=comp,
                            runtime=runtime,
                        )
                    )
                    op_sets = {
                        f: set().union(*(lines[f] for lines in pick_lines))
                        for f in undetected
                    }
                cover = greedy_cover(op_sets)
                n_obs = len(cover.lines)
                fe_obs = (
                    100.0 * (len(covered) + len(cover.covered)) / n_targets
                )
                obs_lines = cover.lines
            else:
                n_obs = 0
                fe_obs = 100.0
                obs_lines = ()

            distinct: Set[Weight] = set()
            for assignment in assignments:
                distinct.update(assignment.deterministic_weights())

            rows.append(
                TradeoffRow(
                    n_sequences=k,
                    n_subsequences=len(distinct),
                    max_length=max((w.length for w in distinct), default=0),
                    fault_efficiency=fe,
                    n_observation_points=n_obs,
                    fault_efficiency_with_obs=fe_obs,
                    observation_points=obs_lines,
                )
            )
        if stop_at_full and not undetected:
            break
    return rows


def format_tradeoff(circuit_name: str, rows: Sequence[TradeoffRow]) -> str:
    """Render rows in the paper's Tables 7-16 layout."""
    headers = ["circuit", "seq", "sub", "len", "f.e.", "obs", "f.e."]
    body = []
    for i, row in enumerate(rows):
        body.append(
            [
                circuit_name if i == 0 else "",
                row.n_sequences,
                row.n_subsequences,
                row.max_length,
                f"{row.fault_efficiency:.1f}",
                row.n_observation_points,
                f"{row.fault_efficiency_with_obs:.1f}",
            ]
        )
    return format_table(
        headers, body, title=f"Observation point insertion for {circuit_name}"
    )
