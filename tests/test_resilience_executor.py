"""Fault tolerance of the process-pool executor.

Every recovery path — worker crash, hung worker, corrupted payload,
retry exhaustion, graceful degradation to serial — is driven by the
deterministic chaos harness and must reproduce the serial executor's
results bit for bit.  Rates of 1.0 make the failure traces themselves
deterministic, so the tests pin exact counter values, not just "it
eventually worked".
"""

from __future__ import annotations

import pytest

from repro.circuit import write_bench
from repro.errors import ChaosError, LintError, ResilienceError
from repro.resilience import ChaosSpec, RetryPolicy
from repro.runtime import (
    ProcessExecutor,
    RuntimeContext,
    RuntimeStats,
    SerialExecutor,
    make_executor,
)


@pytest.fixture(scope="module")
def s27_tasks(s27, s27_faults, paper_t):
    """Bench text, frozen stimulus and fault groups small enough that
    tiny s27 still fans out into several pool tasks."""
    bench = write_bench(s27)
    stimulus = tuple(tuple(p) for p in paper_t.patterns)
    groups = [list(s27_faults[i:i + 8]) for i in range(0, len(s27_faults), 8)]
    assert len(groups) == 4
    return bench, stimulus, groups


def _reference(s27_tasks):
    bench, stimulus, groups = s27_tasks
    return SerialExecutor().run_fault_groups(bench, stimulus, groups, False, False)


def _same_results(parts, reference):
    assert len(parts) == len(reference)
    for got, want in zip(parts, reference):
        assert got.detection_time == want.detection_time
        assert got.undetected == want.undetected
        assert got.n_faults == want.n_faults


def test_crash_storm_degrades_to_serial_with_identical_results(s27_tasks):
    bench, stimulus, groups = s27_tasks
    stats = RuntimeStats()
    policy = RetryPolicy(retries=2, backoff_s=0.0, max_pool_rebuilds=3)
    with ProcessExecutor(
        2, stats, policy=policy, chaos=ChaosSpec(crash=1.0, seed=1)
    ) as ex:
        parts = ex.run_fault_groups(bench, stimulus, groups, False, False)
        assert ex.degraded
    _same_results(parts, _reference(s27_tasks))
    # crash=1.0 makes the trace exact: one BrokenProcessPool per round,
    # three rounds until degradation, then every task replays serially.
    assert stats.worker_crashes == 3
    assert stats.pool_rebuilds == 3
    assert stats.executor_degradations == 1
    assert stats.serial_fallback_tasks == len(groups)


def test_corrupt_payloads_retry_then_replay_serially(s27_tasks):
    bench, stimulus, groups = s27_tasks
    stats = RuntimeStats()
    policy = RetryPolicy(retries=1, backoff_s=0.0)
    with ProcessExecutor(
        2, stats, policy=policy, chaos=ChaosSpec(corrupt=1.0, seed=1)
    ) as ex:
        parts = ex.run_fault_groups(bench, stimulus, groups, False, False)
        assert not ex.degraded
    _same_results(parts, _reference(s27_tasks))
    # Every dispatch returns the corrupt sentinel: each of the 4 tasks
    # fails validation twice (initial + one retry), then replays inline.
    assert stats.corrupt_results == 2 * len(groups)
    assert stats.task_retries == len(groups)
    assert stats.serial_fallback_tasks == len(groups)
    assert stats.pool_rebuilds == 0
    assert stats.worker_crashes == 0


def test_hung_workers_time_out_and_tasks_replay(s27_tasks):
    bench, stimulus, groups = s27_tasks
    two_groups = [groups[0] + groups[1], groups[2] + groups[3]]
    stats = RuntimeStats()
    policy = RetryPolicy(
        task_timeout=0.3, retries=0, backoff_s=0.0, max_pool_rebuilds=10
    )
    with ProcessExecutor(
        2, stats, policy=policy,
        chaos=ChaosSpec(hang=1.0, seed=1, hang_s=1.5),
    ) as ex:
        parts = ex.run_fault_groups(bench, stimulus, two_groups, False, False)
        assert not ex.degraded
    reference = SerialExecutor().run_fault_groups(
        bench, stimulus, two_groups, False, False
    )
    _same_results(parts, reference)
    # hang=1.0 with retries=0: each task hangs once, is declared hung
    # after task_timeout, its pool abandoned, and the task replayed
    # serially (where chaos is never injected).
    assert stats.task_timeouts == 2
    assert stats.pool_rebuilds == 2
    assert stats.serial_fallback_tasks == 2


def test_degraded_executor_stays_serial(s27_tasks):
    bench, stimulus, groups = s27_tasks
    stats = RuntimeStats()
    policy = RetryPolicy(retries=0, backoff_s=0.0, max_pool_rebuilds=1)
    with ProcessExecutor(
        2, stats, policy=policy, chaos=ChaosSpec(crash=1.0, seed=1)
    ) as ex:
        ex.run_fault_groups(bench, stimulus, groups, False, False)
        assert ex.degraded
        rebuilds = stats.pool_rebuilds
        fallbacks = stats.serial_fallback_tasks
        parts = ex.run_fault_groups(bench, stimulus, groups, False, False)
        # No new pool is ever built; the whole batch runs inline.
        assert stats.pool_rebuilds == rebuilds
        assert stats.serial_fallback_tasks == fallbacks + len(groups)
    _same_results(parts, _reference(s27_tasks))


def test_fanout_stats_recorded_even_when_a_task_raises(paper_t):
    # A deterministic task error (garbage circuit text) propagates out
    # of the executor — but the dispatched batch must still be counted.
    stats = RuntimeStats()
    stimulus = tuple(tuple(p) for p in paper_t.patterns)
    with ProcessExecutor(2, stats) as ex:
        with pytest.raises(Exception):
            ex.screen_batch("this is not a bench file", [stimulus] * 3, [])
    assert stats.tasks_dispatched == 3


def test_executors_are_context_managers():
    with make_executor(1) as ex:
        assert isinstance(ex, SerialExecutor)
    with make_executor(2) as ex2:
        assert isinstance(ex2, ProcessExecutor)
        assert ex2.jobs == 2
    assert ex2._pool is None


def test_runtime_context_validates_before_building_a_pool(monkeypatch):
    # Satellite of the leak audit: a configuration error must be
    # raised before any ProcessPoolExecutor exists, so nothing can
    # leak.  If validation ever moves after pool construction, the
    # monkeypatched factory trips.
    import repro.runtime.context as ctx_mod

    def boom(*args, **kwargs):
        raise AssertionError("executor built before config validation")

    monkeypatch.setattr(ctx_mod, "make_executor", boom)
    with pytest.raises(LintError):
        RuntimeContext(jobs=2, lint="bogus")
    with pytest.raises(ChaosError):
        RuntimeContext(jobs=2, chaos="nope=1")
    with pytest.raises(ResilienceError):
        RuntimeContext(jobs=2, retries=-1)
    with pytest.raises(ResilienceError):
        RuntimeContext(jobs=2, task_timeout=0.0)


def test_runtime_context_closes_executor_if_cache_init_fails(
    monkeypatch, tmp_path
):
    import repro.runtime.context as ctx_mod

    closed = []

    class FakeExecutor:
        jobs = 2

        def close(self):
            closed.append(True)

    def failing_cache(*args, **kwargs):
        raise OSError("cache root unusable")

    monkeypatch.setattr(
        ctx_mod, "make_executor", lambda *a, **k: FakeExecutor()
    )
    monkeypatch.setattr(ctx_mod, "ArtifactCache", failing_cache)
    with pytest.raises(OSError):
        RuntimeContext(jobs=2, cache_dir=tmp_path / "cache")
    assert closed == [True]


# Whole-sweep bit-identity under chaos — the acceptance criterion — lives
# in tests/test_resilience_sweep.py: a single flow dispatches nothing, so
# the pool's flow-level work unit is one circuit of a Table-6 sweep.
