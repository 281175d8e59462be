"""Golden backend-identity: the vector fault-simulation backend is
invisible in every deliverable.

The same flow run with ``sim_backend="vector"`` — serially, with
``--jobs 4``, against a warm cache, under chaos injection, and with the
certificate report (``static_prune``) — must reproduce the python
oracle's Table-6 row, final sequence, Ω selection and byte-identical
normalized trace.
Execution strategy and simulation engine may only show up in the parts
normalization strips.
"""

from __future__ import annotations

import pytest

from repro.core.procedure import ProcedureConfig
from repro.flows.experiments import clear_cache, flow_for
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.runtime import RuntimeContext
from repro.trace import normalized_json

CHAOS = "crash=0.3,seed=7"


def _cfg(backend, **overrides):
    kwargs = dict(
        seed=1,
        tgen_max_len=500,
        compaction_sims=30,
        procedure=ProcedureConfig(l_g=100),
        synthesize_hardware=True,
        sim_backend=backend,
    )
    kwargs.update(overrides)
    return FlowConfig(**kwargs)


def _traced_flow(circuit, backend, cfg_overrides=None, **runtime_kwargs):
    cfg = _cfg(backend, **(cfg_overrides or {}))
    with RuntimeContext(trace=True, **runtime_kwargs) as rt:
        result = run_full_flow(circuit, cfg, runtime=rt)
        root = rt.tracer.finish()
        return result, normalized_json(root, rt.tracer.events)


def _assert_same_flow(a, b):
    assert a.table6 == b.table6
    assert a.sequence.patterns == b.sequence.patterns
    assert a.procedure.omega == b.procedure.omega
    assert a.generated.detected == b.generated.detected
    assert a.reverse_order == b.reverse_order


@pytest.fixture(scope="module")
def python_golden(s27):
    return _traced_flow(s27, "python")


def test_vector_serial_matches_python(s27, python_golden):
    result_py, golden = python_golden
    result_vec, trace = _traced_flow(s27, "vector")
    assert trace == golden
    _assert_same_flow(result_py, result_vec)


def test_vector_jobs4_matches_python(s27, python_golden):
    result_py, golden = python_golden
    result_vec, trace = _traced_flow(s27, "vector", jobs=4)
    assert trace == golden
    _assert_same_flow(result_py, result_vec)


def test_vector_warm_cache_matches_python(s27, python_golden, tmp_path):
    _, golden = python_golden
    cache = tmp_path / "cache"
    result_cold, cold = _traced_flow(s27, "vector", cache_dir=cache)
    result_warm, warm = _traced_flow(s27, "vector", cache_dir=cache)
    assert cold == golden
    assert warm == golden
    _assert_same_flow(result_cold, result_warm)


def test_vector_chaos_matches_python(s27, python_golden):
    result_py, golden = python_golden
    result_vec, trace = _traced_flow(s27, "vector", jobs=2, chaos=CHAOS)
    assert trace == golden
    _assert_same_flow(result_py, result_vec)


def test_static_prune_backend_identity(s27):
    overrides = {"static_prune": True}
    result_py, trace_py = _traced_flow(s27, "python", overrides)
    result_vec, trace_vec = _traced_flow(s27, "vector", overrides)
    assert trace_vec == trace_py
    _assert_same_flow(result_py, result_vec)
    assert result_vec.pruned is not None
    assert result_vec.pruned.n_pruned == result_py.pruned.n_pruned


def test_mixed_cache_backends_share_artifacts(s27, tmp_path):
    """A python-populated cache serves a vector run (and vice versa):
    artifact keys are content-addressed, never backend-tagged."""
    cache = tmp_path / "cache"
    with RuntimeContext(cache_dir=cache) as rt:
        result_py = run_full_flow(s27, _cfg("python"), runtime=rt)
        misses_cold = rt.stats.cache_misses
    with RuntimeContext(cache_dir=cache) as rt:
        result_vec = run_full_flow(s27, _cfg("vector"), runtime=rt)
        assert rt.stats.cache_misses < misses_cold
    _assert_same_flow(result_py, result_vec)


def test_table6_row_backend_identity():
    clear_cache()
    try:
        row_py = flow_for("s27", l_g=100, sim_backend="python").table6
        row_vec = flow_for("s27", l_g=100, sim_backend="vector").table6
        row_auto = flow_for("s27", l_g=100, sim_backend="auto").table6
    finally:
        clear_cache()
    assert row_py == row_vec == row_auto
