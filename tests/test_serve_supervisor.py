"""Supervisor tests: real forked workers, induced crashes and hangs.

These drive the :class:`~repro.serve.supervisor.Supervisor` directly —
no HTTP — against real worker processes running real (tiny) flows, and
pin the recovery contract:

* a multi-worker campaign completes with results byte-identical to
  running the flows directly;
* an idle worker is leased the job the queue's dispatch order puts
  next, whichever worker it is;
* a SIGKILLed worker is detected, its leased job requeued exactly
  once, and the slot respawned (``worker_restarts`` advances);
* a hung worker (alive, heartbeats stale) gets the same treatment;
* a stale fencing token keeps late bytes out of the result store;
* drain (``stop``) demotes an unfinished claim exactly once.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.flows import run_full_flow
from repro.serve.job import DONE, QUEUED, JobSpec
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import JobQueue
from repro.serve.results import ResultStore, flow_result_payload, render_result
from repro.serve.supervisor import Supervisor
from tests.test_serve_queue import make_spec

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork-based multiprocessing"
)


def make_parts(tmp_path, **queue_kwargs):
    queue = JobQueue(tmp_path / "journal.json", **queue_kwargs)
    return queue, ResultStore(tmp_path / "results"), ServeMetrics()


def wait_until(predicate, timeout_s=60.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


def reference_bytes(spec) -> bytes:
    result = run_full_flow(spec.circuit, spec.flow_config())
    return render_result(flow_result_payload(result))


def test_campaign_completes_byte_identical_across_two_workers(tmp_path):
    queue, results, metrics = make_parts(tmp_path)
    specs = [make_spec(seed) for seed in range(1, 5)]
    for spec in specs:
        queue.submit(spec)
    supervisor = Supervisor(
        queue, results, metrics, workers=2, enable_cache=False
    )
    supervisor.start()
    try:
        assert wait_until(
            lambda: all(
                queue.get(s.key()) is not None
                and queue.get(s.key()).state == DONE
                for s in specs
            )
        ), "campaign did not converge"
    finally:
        assert supervisor.stop(timeout_s=10.0)
    for spec in specs:
        assert results.get_bytes(spec.key()) == reference_bytes(spec)
    assert metrics.counters["completed"] == len(specs)
    # Both workers reported liveness; snapshots carry the healthz shape.
    snaps = supervisor.worker_snapshots()
    assert [s["name"] for s in snaps] == ["w0", "w1"]
    for snap in snaps:
        assert {"name", "alive", "busy", "restarts"} <= set(snap)
    # Worker runtime stats flowed back to the supervisor's aggregate.
    assert supervisor.runtime_stats_snapshot().full_simulations > 0


def test_dispatch_leases_in_the_queue_dispatch_order(tmp_path):
    """A priority-9 job never waits behind a priority-0 one: the first
    idle worker is leased the job ``claim_next`` would take, whatever
    the job's key."""
    queue, results, metrics = make_parts(tmp_path)
    low, _ = queue.submit(JobSpec(circuit="s27", seed=3, priority=0))
    high, _ = queue.submit(JobSpec(circuit="s27", seed=1, priority=9))
    supervisor = Supervisor(queue, results, metrics, workers=2)
    sent = []

    def fake_assign(name):
        def assign(key, token, attempt, spec):
            sent.append((name, key))
            return True

        return assign

    for handle in supervisor._handles:
        handle.alive = lambda: True
        handle.assign = fake_assign(handle.name)
    assert supervisor._dispatch()
    assert sent == [("w0", high.key), ("w1", low.key)]
    assert queue.get(high.key).owner == "w0"


def test_sigkilled_worker_is_respawned_and_job_recovered(tmp_path):
    queue, results, metrics = make_parts(tmp_path)
    specs = [make_spec(seed) for seed in range(1, 4)]
    for spec in specs:
        queue.submit(spec)
    supervisor = Supervisor(
        queue,
        results,
        metrics,
        workers=2,
        enable_cache=False,
        restart_backoff_s=0.05,
    )
    supervisor.start()
    try:
        # Murder one worker out from under the supervisor.
        assert wait_until(lambda: supervisor._handles[0].alive(), 10.0)
        os.kill(supervisor._handles[0].proc.pid, signal.SIGKILL)
        assert wait_until(
            lambda: metrics.counters["worker_restarts"] >= 1, 30.0
        ), "crash never detected"
        assert wait_until(
            lambda: all(queue.get(s.key()).state == DONE for s in specs)
        ), "campaign did not recover"
    finally:
        assert supervisor.stop(timeout_s=10.0)
    for spec in specs:
        assert results.get_bytes(spec.key()) == reference_bytes(spec)
    # The respawned slot shows its restart in the healthz snapshot.
    assert any(s["restarts"] >= 1 for s in supervisor.worker_snapshots())


def test_hung_worker_is_recycled(tmp_path):
    # worker_hang=1.0 pauses heartbeats inside the worker for hang_s;
    # with a much shorter heartbeat timeout the supervisor must declare
    # it hung, SIGKILL it, requeue the claim and still converge.
    queue, results, metrics = make_parts(tmp_path)
    spec = make_spec(1)
    queue.submit(spec)
    supervisor = Supervisor(
        queue,
        results,
        metrics,
        workers=2,
        enable_cache=False,
        chaos_text="worker_hang=1.0,hang_s=30.0,seed=1",
        heartbeat_timeout_s=1.0,
        restart_backoff_s=0.05,
        max_restarts=1000,
        lease_ttl_s=5.0,
    )
    supervisor.start()
    try:
        assert wait_until(
            lambda: metrics.counters["worker_restarts"] >= 1, 30.0
        ), "hang never detected"
    finally:
        supervisor.stop(timeout_s=5.0)
    # The job survived the hang: either requeued (exactly once per
    # recovery) or already re-dispatched; never lost.
    job = queue.get(spec.key())
    assert job is not None and job.state in (QUEUED, DONE)
    assert metrics.counters["requeued"] >= 1


def test_stale_result_never_touches_the_store(tmp_path):
    queue, results, metrics = make_parts(tmp_path)
    spec = make_spec(1)
    queue.submit(spec)
    supervisor = Supervisor(queue, results, metrics, workers=2)
    job, lease = queue.claim("w0", ttl_s=30.0)
    # The lease is reclaimed (crash recovery) while w0 still computes.
    assert queue.requeue(job.key, lease.token)
    handle = supervisor._handles[0]
    supervisor._handle_done(
        handle,
        {
            "op": "done",
            "key": job.key,
            "token": lease.token,
            "ok": True,
            "payload": {"schema": "bogus"},
            "trace": json.dumps({"bogus": True}),
            "stats": {},
            "snapshot": {},
        },
    )
    assert metrics.counters["stale_results_rejected"] == 1
    assert results.get_bytes(job.key) is None
    assert queue.get(job.key).state == QUEUED


def test_drain_demotes_unfinished_claim_exactly_once(tmp_path):
    # A worker wedged mid-job (chaos hang longer than any grace) forces
    # stop() down the kill-and-requeue path: the claim must come back
    # as QUEUED with exactly one demotion recorded.
    queue, results, metrics = make_parts(tmp_path)
    spec = make_spec(1)
    queue.submit(spec)
    supervisor = Supervisor(
        queue,
        results,
        metrics,
        workers=2,
        enable_cache=False,
        chaos_text="worker_hang=1.0,hang_s=120.0,seed=1",
        heartbeat_timeout_s=60.0,  # hang outlives the drain, not the sweep
        lease_ttl_s=60.0,
    )
    supervisor.start()
    try:
        assert wait_until(
            lambda: any(h.busy is not None for h in supervisor._handles),
            10.0,
        ), "job never dispatched"
    finally:
        assert supervisor.stop(timeout_s=1.0)
    job = queue.get(spec.key())
    assert job is not None and job.state == QUEUED
    assert job.owner is None and job.lease_token is None
    assert metrics.counters["requeued"] == 1
    assert len(queue.leases) == 0
    # Nothing half-finished leaked into the result store.
    assert results.get_bytes(spec.key()) is None


def test_flapping_worker_is_degraded_but_fleet_survives(tmp_path):
    # kill_claim=1.0 makes a worker SIGKILL itself on *every* claim:
    # the purest flap.  With max_restarts=2 the supervisor must degrade
    # slots rather than restart forever — but never below one worker.
    queue, results, metrics = make_parts(tmp_path)
    spec = make_spec(1)
    queue.submit(spec)
    supervisor = Supervisor(
        queue,
        results,
        metrics,
        workers=2,
        enable_cache=False,
        chaos_text="kill_claim=1.0,seed=1",
        restart_backoff_s=0.01,
        max_restarts=2,
        restart_window_s=300.0,
        lease_ttl_s=5.0,
    )
    supervisor.start()
    try:
        assert wait_until(
            lambda: metrics.counters["workers_degraded"] >= 1, 60.0
        ), "flapping slot never degraded"
    finally:
        supervisor.stop(timeout_s=2.0)
    assert len(supervisor._handles) >= 1  # never below one worker
    snaps = supervisor.worker_snapshots()
    assert any(snap.get("degraded") for snap in snaps)
    # The job was never lost — requeued each time, still claimable.
    job = queue.get(spec.key())
    assert job is not None and job.state in (QUEUED, DONE)
