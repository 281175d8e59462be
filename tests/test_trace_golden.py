"""Golden-trace determinism: the normalized trace is a pure function of
the workload.

The same flow run serially, with ``--jobs 4``, against a warm cache,
and under chaos injection must produce byte-identical normalized span
trees and deterministic event sequences — execution strategy may only
show up in the parts normalization strips (timings, task spans,
runtime events).  The same holds for a Table-6 sweep whose flows ran
in worker processes and were grafted into the parent's trace.
"""

from __future__ import annotations

import pytest

from repro.core.procedure import ProcedureConfig
from repro.flows import clear_cache, table6_rows
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.runtime import RuntimeContext
from repro.trace import normalized_json

CFG = FlowConfig(
    seed=1,
    tgen_max_len=500,
    compaction_sims=30,
    procedure=ProcedureConfig(l_g=100),
    synthesize_hardware=True,
)

CHAOS = "crash=0.3,seed=7"


def _traced_flow(circuit, **runtime_kwargs):
    with RuntimeContext(trace=True, **runtime_kwargs) as rt:
        result = run_full_flow(circuit, CFG, runtime=rt)
        root = rt.tracer.finish()
        return result, normalized_json(root, rt.tracer.events)


@pytest.fixture(scope="module")
def serial_golden(s27):
    return _traced_flow(s27)


def test_rerun_is_byte_identical(s27, serial_golden):
    _, golden = serial_golden
    _, again = _traced_flow(s27)
    assert again == golden


def test_parallel_matches_serial(s27, serial_golden):
    result0, golden = serial_golden
    result4, parallel = _traced_flow(s27, jobs=4)
    assert parallel == golden
    assert result4.table6 == result0.table6


def test_cold_then_warm_cache_match_serial(s27, serial_golden, tmp_path):
    _, golden = serial_golden
    cache = tmp_path / "cache"
    _, cold = _traced_flow(s27, cache_dir=cache)
    _, warm = _traced_flow(s27, cache_dir=cache)
    assert cold == golden
    assert warm == golden


def test_chaos_injection_matches_serial(s27, serial_golden):
    result0, golden = serial_golden
    result_chaos, chaotic = _traced_flow(s27, jobs=2, chaos=CHAOS)
    assert chaotic == golden
    assert result_chaos.table6 == result0.table6


def test_raw_traces_do_differ_before_normalization(s27, tmp_path):
    """Sanity: normalization is doing real work — raw traces from a
    cold-cache and warm-cache run differ (cache events, counters)."""
    from repro.trace import trace_payload

    cache = tmp_path / "cache"
    with RuntimeContext(trace=True, cache_dir=cache) as rt:
        run_full_flow(s27, CFG, runtime=rt)
        cold_events = [e.kind for e in rt.tracer.events]
        rt.tracer.finish()
    with RuntimeContext(trace=True, cache_dir=cache) as rt:
        run_full_flow(s27, CFG, runtime=rt)
        warm_events = [e.kind for e in rt.tracer.events]
        root = rt.tracer.finish()
    assert "cache_miss" in cold_events
    assert "cache_hit" in warm_events
    assert cold_events != warm_events
    # and the full payload carries the runtime detail normalization drops
    payload = trace_payload(root, rt.tracer.events)
    assert any(e["kind"] == "cache_hit" for e in payload["events"])


def test_span_tree_attributes_every_flow_phase(s27, serial_golden):
    """The normalized tree names each Section-4 phase exactly once."""
    import json

    _, golden = serial_golden
    tree = json.loads(golden)["spans"]

    counts = {}

    def walk(node):
        counts[node["name"]] = counts.get(node["name"], 0) + 1
        for child in node["children"]:
            walk(child)

    walk(tree)
    for phase in (
        "full_flow",
        "test_generation",
        "compaction",
        "static_compaction",
        "procedure",
        "initial_simulation",
        "reverse_order",
        "reverse_order_sim",
        "hardware",
        "tpg_synthesize",
        "tpg_lint",
        "tpg_verify",
    ):
        assert counts.get(phase) == 1, phase
    # the selection loop traces each target time u
    assert counts.get("target_time", 0) >= 1
    assert counts.get("mine_candidates", 0) >= 1


# -- a Table-6 sweep whose flows ran on the pool ------------------------------

SWEEP = ("s27", "g208")


def _traced_sweep(**runtime_kwargs):
    clear_cache()
    try:
        with RuntimeContext(trace=True, **runtime_kwargs) as rt:
            rows = table6_rows(SWEEP, runtime=rt)
            root = rt.tracer.finish()
            return rows, normalized_json(root, rt.tracer.events), rt.stats
    finally:
        clear_cache()


@pytest.fixture(scope="module")
def serial_sweep_golden():
    return _traced_sweep()


@pytest.mark.parametrize(
    "runtime_kwargs",
    [
        dict(jobs=2),
        dict(jobs=3),
        dict(jobs=2, retries=3, backoff_s=0.0,
             chaos="crash=0.3,corrupt=0.3,seed=4"),
        dict(jobs=2, retries=1, backoff_s=0.0, task_timeout=0.5,
             chaos="hang=1.0,seed=9,hang_s=2.0"),
    ],
    ids=["jobs2", "jobs3", "jobs2-crash-corrupt", "jobs2-hang"],
)
def test_parallel_sweep_trace_matches_serial(
    serial_sweep_golden, runtime_kwargs
):
    rows, golden, _ = serial_sweep_golden
    got_rows, got, stats = _traced_sweep(**runtime_kwargs)
    assert got == golden
    assert got_rows == rows
    assert stats.tasks_dispatched == len(SWEEP)
    if "chaos" in runtime_kwargs:
        recoveries = (
            stats.worker_crashes + stats.corrupt_results + stats.task_timeouts
        )
        assert recoveries > 0


def test_sweep_trace_attributes_each_flow(serial_sweep_golden):
    import json

    _, golden, _ = serial_sweep_golden
    (sweep,) = json.loads(golden)["spans"]["children"]
    assert sweep["name"] == "table6_sweep"
    flows = [c for c in sweep["children"] if c["name"] == "full_flow"]
    assert [f["attrs"]["circuit"] for f in flows] == list(SWEEP)
