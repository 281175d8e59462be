"""E7: Figure 1 — the test sequence generator.

Synthesizes the Figure-1 TPG (cycle counter + assignment counter +
weight FSM bank + per-input selection logic) for each circuit's kept
weight assignments, verifies it cycle-exact against the software
weighted sequences, and reports its structure and gate cost next to
the ROM cost of storing the deterministic sequence (the stored-pattern
alternative of [18]/[19]).

The benchmark kernel is TPG synthesis for s27.
"""

from __future__ import annotations

from repro.flows import flow_for
from repro.flows.experiments import active_suite
from repro.hw import rom_bits_equivalent, synthesize_tpg, tpg_cost, verify_tpg
from repro.util.tables import format_table


def test_figure1_generator(benchmark, record_table):
    rows = []
    for name in active_suite():
        flow = flow_for(name)
        kept = list(flow.reverse_order.kept)
        assert kept, name
        # The generator the flow ships, at the flow's own L_G: the
        # replay costs L_G + 1 cycles of all windows side by side.
        design = synthesize_tpg(kept, flow.procedure.l_g, flow.circuit.inputs)
        verdict = verify_tpg(design)
        assert verdict.ok, f"{name}: TPG replay mismatch {verdict.mismatches[:3]}"

        cost = tpg_cost(design)
        rom = rom_bits_equivalent(len(flow.sequence), len(flow.circuit.inputs))
        rows.append(
            [
                name,
                design.n_assignments,
                len(design.fsms),
                sum(f.n_outputs for f in design.fsms),
                cost.n_flops,
                cost.n_gates,
                cost.n_literals,
                f"{cost.gate_equivalents:.0f}",
                rom,
            ]
        )

    text = format_table(
        ["circuit", "assignments", "FSMs", "FSM outs", "flops",
         "gates", "literals", "gate-equiv", "ROM bits (stored T)"],
        rows,
        title="Figure 1: synthesized test sequence generators (replay-verified)",
    )
    record_table("figure1_tpg", text)

    # Benchmark kernel: synthesis for s27's kept assignments.
    flow = flow_for("s27")
    kept = list(flow.reverse_order.kept)

    def kernel():
        return synthesize_tpg(kept, 64, flow.circuit.inputs)

    design = benchmark(kernel)
    assert design.circuit.outputs
