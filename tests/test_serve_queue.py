"""Durable job-queue tests, including the Hypothesis property suite.

The serve layer's queue makes three promises the properties pin down:

* **Dispatch order** — under *any* interleaving of submissions and
  cancellations, draining the queue claims jobs in non-increasing
  priority, FIFO within one (priority, client) pair, and claims
  exactly the jobs that were queued (cancelled ones never run).
* **Journal round-trip** — rebuilding a queue from its journal
  restores identical state (``running`` jobs demoted to ``queued``,
  everything else byte-for-byte the same record).
* **Crash-safe submit** — for a crash at any point around the journal
  write, no *acknowledged* job is ever lost and no job is ever
  duplicated; resubmitting after restart converges to exactly one job
  per key.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.job import CANCELLED, DONE, QUEUED, RUNNING, TASKS, Job, JobSpec
from repro.serve.queue import JobQueue

#: Small parameter spaces keep the example count meaningful: seeds
#: collide (exercising dedup), clients and priorities interleave.
#: Every queue/journal promise is task-agnostic, so the whole suite is
#: parametric over the job types the server runs.
_SEEDS = st.integers(min_value=0, max_value=7)
_PRIORITIES = st.integers(min_value=0, max_value=3)
_CLIENTS = st.sampled_from(("alice", "bob", "carol"))

all_tasks = pytest.mark.parametrize("task", TASKS)


def make_spec(
    seed: int,
    priority: int = 0,
    client: str = "alice",
    task: str = "flow",
) -> JobSpec:
    return JobSpec(
        circuit="s27",
        task=task,
        seed=seed,
        tgen_max_len=64,
        compaction_sims=0,
        l_g=32,
        priority=priority,
        client=client,
    )


_submits = st.tuples(st.just("submit"), _SEEDS, _PRIORITIES, _CLIENTS)
_cancels = st.tuples(st.just("cancel"), _SEEDS)
_ops = st.lists(st.one_of(_submits, _cancels), max_size=30)


def _apply(queue: JobQueue, op, task: str) -> None:
    if op[0] == "submit":
        queue.submit(make_spec(op[1], op[2], op[3], task=task))
    else:
        queue.cancel(make_spec(op[1], task=task).key())


@all_tasks
@given(ops=_ops)
@settings(max_examples=40, deadline=None)
def test_claim_order_priority_then_fifo_under_interleavings(ops, task):
    with tempfile.TemporaryDirectory() as tmp:
        queue = JobQueue(Path(tmp) / "journal.json")
        for op in ops:
            _apply(queue, op, task)

        queued = {j.key for j in queue.jobs() if j.state == QUEUED}
        claimed = []
        while True:
            job = queue.claim_next()
            if job is None:
                break
            claimed.append(job)
            queue.finish(job.key, ok=True)

        # Exactly the queued jobs run — cancelled ones never do.
        assert {j.key for j in claimed} == queued
        assert len({j.key for j in claimed}) == len(claimed)

        priorities = [j.spec.priority for j in claimed]
        assert priorities == sorted(priorities, reverse=True)

        per_tier_client = defaultdict(list)
        for job in claimed:
            per_tier_client[(job.spec.priority, job.spec.client)].append(
                job.seq
            )
        for seqs in per_tier_client.values():
            assert seqs == sorted(seqs), "FIFO broken within a tier/client"


@all_tasks
@given(ops=_ops, claims=st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_journal_round_trip_restores_identical_state(ops, claims, task):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.json"
        queue = JobQueue(path)
        for op in ops:
            _apply(queue, op, task)
        # Move some jobs into running/done so every state round-trips.
        for i in range(claims):
            job = queue.claim_next()
            if job is None:
                break
            if i % 2 == 0:  # leave every other claim in-flight
                queue.finish(job.key, ok=True, stats={"full_simulations": 3})

        before = {j.key: j.to_dict() for j in queue.jobs()}
        restored = JobQueue(path)
        after = {j.key: j.to_dict() for j in restored.jobs()}

        assert set(after) == set(before)
        for key, record in before.items():
            expected = dict(record)
            if expected["state"] == RUNNING:
                # Restart demotes in-flight work: one more transition,
                # so the record version advances and any lease is gone.
                expected["state"] = QUEUED
                expected["version"] = int(expected["version"]) + 1
                expected["owner"] = None
                expected["lease_token"] = None
            assert after[key] == expected
        # Sequence numbering continues where it stopped (no reuse).
        assert restored._next_seq == queue._next_seq


class _Crash(RuntimeError):
    """Simulated process death around the journal write."""


@all_tasks
@given(
    submits=st.lists(
        st.tuples(_SEEDS, _PRIORITIES, _CLIENTS),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    ),
    crash_at=st.integers(min_value=0, max_value=7),
    crash_after_write=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_no_job_lost_or_duplicated_across_crash_mid_submit(
    submits, crash_at, crash_after_write, task
):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.json"
        queue = JobQueue(path)
        real_record = queue._journal.record
        calls = {"n": 0}

        def flaky_record(key, payload):
            n = calls["n"]
            calls["n"] += 1
            if n == crash_at:
                if crash_after_write:
                    real_record(key, payload)
                raise _Crash()
            real_record(key, payload)

        queue._journal.record = flaky_record

        acked = []
        crashed_spec = None
        pending = [make_spec(*t, task=task) for t in submits]
        for i, spec in enumerate(pending):
            try:
                queue.submit(spec)
                acked.append(spec.key())
            except _Crash:
                crashed_spec = spec
                pending = pending[i:]
                break
        else:
            pending = []

        # "Restart": rebuild from the journal alone.
        restored = JobQueue(path)
        keys = {j.key for j in restored.jobs()}

        expected = set(acked)
        if crashed_spec is not None and crash_after_write:
            # Crash after the atomic journal write: the job survives
            # even though the submitter never heard the ack.
            expected.add(crashed_spec.key())
        assert keys == expected
        seqs = [j.seq for j in restored.jobs()]
        assert len(set(seqs)) == len(seqs), "duplicated queue slots"

        # Resubmitting everything after restart converges to exactly
        # one job per key — never a duplicate, never a loss.
        for spec in pending:
            job, _created = restored.submit(spec)
            assert job.key == spec.key()
        final = [j.key for j in restored.jobs()]
        assert sorted(final) == sorted(set(acked) | {s.key() for s in pending})


# -- deterministic unit tests ------------------------------------------------


@all_tasks
def test_submit_dedups_by_content_key(tmp_path, task):
    queue = JobQueue(tmp_path / "journal.json")
    job, created = queue.submit(
        make_spec(1, priority=2, client="alice", task=task)
    )
    assert created and job.state == QUEUED
    # Same computation from another client at another priority: dedup.
    dup, created2 = queue.submit(
        make_spec(1, priority=9, client="bob", task=task)
    )
    assert not created2 and dup is job
    assert len(queue) == 1


def test_task_kinds_never_share_a_key(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    flow = make_spec(1, task="flow")
    optimize = make_spec(1, task="optimize")
    assert flow.key() != optimize.key()
    queue.submit(flow)
    _, created = queue.submit(optimize)
    assert created and len(queue) == 2


def test_flow_keys_ignore_the_search_budget():
    # The flow key basis predates the optimizer: budget knobs must not
    # disturb it (old journals and result stores keep resolving), while
    # an optimize job is re-keyed by its budget.
    import dataclasses

    flow = make_spec(1, task="flow")
    assert dataclasses.replace(flow, population=32).key() == flow.key()
    assert dataclasses.replace(flow, generations=9).key() == flow.key()
    optimize = make_spec(1, task="optimize")
    assert dataclasses.replace(optimize, population=32).key() != optimize.key()
    assert (
        dataclasses.replace(optimize, generations=9).key() != optimize.key()
    )


def test_optimize_keys_ignore_static_prune():
    # A search never reads the flag, so a flagged optimize job would
    # compute and store the same front under a second key; a flow
    # reports an extra section with it, so its key still moves.
    import dataclasses

    optimize = make_spec(1, task="optimize")
    flagged = dataclasses.replace(optimize, static_prune=True)
    assert flagged.optimize_config() == optimize.optimize_config()
    assert flagged.key() == optimize.key()
    flow = make_spec(1, task="flow")
    assert dataclasses.replace(flow, static_prune=True).key() != flow.key()


def test_cancelled_job_is_revived_by_resubmit(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    job, _ = queue.submit(make_spec(1))
    assert queue.cancel(job.key) is not None
    assert queue.get(job.key).state == CANCELLED
    revived, created = queue.submit(make_spec(1))
    assert created and revived.state == QUEUED
    assert revived.seq > job.seq or revived.seq != 0


def test_cancel_only_touches_queued_jobs(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    job, _ = queue.submit(make_spec(1))
    claimed = queue.claim_next()
    assert claimed.key == job.key and claimed.state == RUNNING
    assert queue.cancel(job.key) is None  # running: not cancellable
    queue.finish(job.key, ok=True)
    assert queue.cancel(job.key) is None  # terminal: not cancellable
    assert queue.get(job.key).state == DONE


def test_fair_share_across_clients_within_a_tier(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    a1, _ = queue.submit(make_spec(1, client="alice"))
    a2, _ = queue.submit(make_spec(2, client="alice"))
    a3, _ = queue.submit(make_spec(3, client="alice"))
    b1, _ = queue.submit(make_spec(4, client="bob"))

    order = []
    while True:
        job = queue.claim_next()
        if job is None:
            break
        order.append(job.key)
        queue.finish(job.key, ok=True)
    # alice goes first (FIFO), then bob — served longest ago — then
    # alice's backlog; one chatty client cannot starve another.
    assert order == [a1.key, b1.key, a2.key, a3.key]


def test_shed_lowest_evicts_youngest_of_bottom_tier(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    old_low, _ = queue.submit(make_spec(1, priority=0))
    young_low, _ = queue.submit(make_spec(2, priority=0))
    high, _ = queue.submit(make_spec(3, priority=5))

    victim = queue.shed_lowest(below_priority=3)
    assert victim.key == young_low.key  # youngest of the lowest tier
    assert queue.get(old_low.key).state == QUEUED
    assert queue.get(high.key).state == QUEUED
    # Nothing ranks below priority 0: no victim.
    assert queue.shed_lowest(below_priority=0) is None


@all_tasks
def test_restore_demotes_running_and_keeps_attempts(tmp_path, task):
    path = tmp_path / "journal.json"
    queue = JobQueue(path)
    job, _ = queue.submit(make_spec(1, task=task))
    queue.claim_next()
    restored = JobQueue(path)
    back = restored.get(job.key)
    assert back.state == QUEUED
    assert back.attempts == 1  # the interrupted attempt still counts


def test_foreign_journal_records_are_ignored(tmp_path):
    path = tmp_path / "journal.json"
    queue = JobQueue(path)
    job, _ = queue.submit(make_spec(1))
    queue._journal.record("not-a-job", {"kind": "checkpoint", "x": 1})
    restored = JobQueue(path)
    assert {j.key for j in restored.jobs()} == {job.key}


@all_tasks
def test_job_record_round_trips_through_dict(tmp_path, task):
    spec = make_spec(3, priority=2, client="bob", task=task)
    job = Job(spec=spec, seq=7, state=DONE, stats={"full_simulations": 9.0})
    assert Job.from_dict(job.to_dict()).to_dict() == job.to_dict()


# -- sharded multi-worker properties -----------------------------------------

#: Per supervision round: does w0 finish its claim, does w1 finish its
#: claim (False = that worker "crashes" holding the lease), and does
#: the whole server crash-and-rebuild afterwards.
_ROUNDS = st.lists(
    st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=6
)


@given(ops=_ops, rounds=_ROUNDS)
@settings(max_examples=40, deadline=None)
def test_sharded_claims_never_lose_or_duplicate_jobs(ops, rounds):
    """Two leased workers over journal shards, workers and the whole
    queue crashing at arbitrary points: after every rebuild the merged
    journals hold exactly one record per submitted key, finished work
    stays finished, and abandoned claims come back claimable."""
    from repro.serve.lease import shard_of

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.json"
        shard_root = Path(tmp) / "shards"
        queue = JobQueue(path, shard_root=shard_root)
        for op in ops:
            _apply(queue, op, "flow")
        submitted = {j.key for j in queue.jobs()}
        finished = set()

        for w0_finishes, w1_finishes, server_crashes in rounds:
            for worker, shard, finishes in (
                ("w0", 0, w0_finishes),
                ("w1", 1, w1_finishes),
            ):
                claimed = queue.claim(
                    worker, ttl_s=30.0, shard=shard, total_shards=2
                )
                if claimed is None:
                    continue
                job, lease = claimed
                # Home-shard discipline: a non-stolen claim stays home.
                if not lease.stolen:
                    assert shard_of(job.key, 2) == shard
                if finishes:
                    assert (
                        queue.finish(job.key, ok=True, token=lease.token)
                        is not None
                    )
                    finished.add(job.key)
                # else: the worker dies holding the lease — nothing is
                # released; recovery happens at rebuild time.
            if server_crashes:
                # Rebuild purely from the on-disk journals (main +
                # shards): the shard merge must reconstruct the state.
                queue = JobQueue(path, shard_root=shard_root)

        restored = JobQueue(path, shard_root=shard_root)
        keys = [j.key for j in restored.jobs()]
        assert sorted(keys) == sorted(submitted), "job lost or invented"
        assert len(set(keys)) == len(keys), "job duplicated"
        seqs = [j.seq for j in restored.jobs()]
        assert len(set(seqs)) == len(seqs), "queue slot duplicated"
        for key in finished:
            assert restored.get(key).state == DONE, "finished work lost"
        # Everything not finished or cancelled is claimable again:
        # abandoned leases were demoted, with ownership cleared.
        for job in restored.jobs():
            if job.state not in (DONE, CANCELLED):
                assert job.state == QUEUED
                assert job.owner is None and job.lease_token is None

        # After compaction the main journal alone carries every record.
        assert restored.shards is not None
        assert restored.shards.shard_names() == []
        drained = []
        while True:
            claimed = restored.claim("w0", ttl_s=30.0)
            if claimed is None:
                break
            job, lease = claimed
            drained.append(job.key)
            restored.finish(job.key, ok=True, token=lease.token)
        assert sorted(drained) == sorted(
            j.key
            for j in JobQueue(path, shard_root=shard_root).jobs()
            if j.key not in finished and j.state == DONE
        )


@given(ops=_ops, claims=st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shard_merge_round_trip_equals_unsharded_view(ops, claims):
    """A queue journaling through owner shards and one journaling only
    through the main journal agree record-for-record after restart —
    sharding changes durability mechanics, never semantics."""
    with tempfile.TemporaryDirectory() as tmp:
        sharded = JobQueue(
            Path(tmp) / "sharded.json", shard_root=Path(tmp) / "shards"
        )
        plain = JobQueue(Path(tmp) / "plain.json")
        for op in ops:
            _apply(sharded, op, "flow")
            _apply(plain, op, "flow")
        for i in range(claims):
            a = sharded.claim("w0", ttl_s=30.0)
            b = plain.claim("w0", ttl_s=30.0)
            assert (a is None) == (b is None)
            if a is None:
                break
            assert a[0].key == b[0].key
            if i % 2 == 0:
                sharded.finish(a[0].key, ok=True, token=a[1].token)
                plain.finish(b[0].key, ok=True, token=b[1].token)

        restored_sharded = JobQueue(
            Path(tmp) / "sharded.json", shard_root=Path(tmp) / "shards"
        )
        restored_plain = JobQueue(Path(tmp) / "plain.json")
        sharded_view = {
            j.key: j.to_dict() for j in restored_sharded.jobs()
        }
        plain_view = {j.key: j.to_dict() for j in restored_plain.jobs()}
        assert sharded_view == plain_view
