"""E20: static implication engine — prune rates and flow overhead.

For every suite circuit the static analysis proves a subset of faults
untestable, each with a machine-checkable certificate.  This benchmark
records (1) the prune rate over both fault universes and the
certificate-kind breakdown, and (2) the end-to-end flow wall-clock with
the certificate report (``static_prune``) off vs. on.  The report
simulates nothing less, so "on" is the flow plus the analysis, which
must never blow up the flow.

Correctness gates: Table-6 rows are byte-identical with the report on
and off, and every emitted certificate passes the independent checker.

The benchmark kernel is one full static analysis (value sets,
learning, per-fault proofs) on g208 over the uncollapsed universe.
"""

from __future__ import annotations

import dataclasses
import time

from repro.analysis.static import analyze, check_certificate
from repro.circuit import load_circuit
from repro.flows import run_full_flow
from repro.flows.experiments import active_suite, flow_config_for
from repro.sim import all_faults, collapse_faults
from repro.util.tables import format_table

# The report may cost the analysis plus scheduling noise, never a
# blow-up.
TIME_TOLERANCE = 1.6
TIME_SLACK_S = 10.0


def test_static_prune(benchmark, record_table):
    rows = []
    json_rows = []
    for name in active_suite():
        circuit = load_circuit(name)
        universe = all_faults(circuit)
        analysis = analyze(circuit, faults=universe)
        for cert in analysis.certificates.values():
            assert check_certificate(circuit, cert), (name, cert.to_dict())
        by_kind = analysis.payload["summary"]["by_kind"]

        collapsed = collapse_faults(circuit)
        collapsed_analysis = analyze(circuit, faults=collapsed)

        cfg = flow_config_for(name)
        t0 = time.perf_counter()
        off = run_full_flow(circuit, cfg)
        t_off = time.perf_counter() - t0
        t0 = time.perf_counter()
        on = run_full_flow(
            circuit, dataclasses.replace(cfg, static_prune=True)
        )
        t_on = time.perf_counter() - t0

        # The report must be invisible in every paper-facing number.
        assert on.table6 == off.table6, name
        assert on.sequence == off.sequence, name
        assert on.pruned is not None and off.pruned is None
        assert on.pruned.n_pruned == collapsed_analysis.n_proved, name
        assert t_on <= t_off * TIME_TOLERANCE + TIME_SLACK_S, (
            f"{name}: pruned flow {t_on:.2f}s vs {t_off:.2f}s unpruned"
        )

        kinds = ", ".join(f"{k}: {v}" for k, v in sorted(by_kind.items()))
        rows.append([
            name,
            len(universe),
            analysis.n_proved,
            f"{analysis.n_proved / len(universe):.1%}",
            len(collapsed),
            collapsed_analysis.n_proved,
            f"{t_off:.2f}",
            f"{t_on:.2f}",
            kinds or "-",
        ])
        json_rows.append({
            "circuit": name,
            "all_faults": len(universe),
            "proved_all": analysis.n_proved,
            "collapsed_faults": len(collapsed),
            "proved_collapsed": collapsed_analysis.n_proved,
            "flow_s_unpruned": round(t_off, 3),
            "flow_s_pruned": round(t_on, 3),
            "by_kind": dict(by_kind),
        })

    text = format_table(
        ["circuit", "faults", "proved", "rate", "collapsed",
         "proved", "t_off/s", "t_on/s", "by kind"],
        rows,
        title="E20: provable-redundancy prune rates (all-fault universe)",
    )
    record_table("static_prune", text, rows=json_rows)

    g208 = load_circuit("g208")
    g208_faults = all_faults(g208)

    def kernel():
        return analyze(g208, faults=g208_faults)

    result = benchmark(kernel)
    assert result.n_proved > 0
