"""Durable job-queue tests, including the Hypothesis property suite.

The serve layer's queue makes three promises the properties pin down:

* **Dispatch order** — under *any* interleaving of submissions and
  cancellations, draining the queue claims jobs in non-increasing
  priority, FIFO within one (priority, client) pair, and claims
  exactly the jobs that were queued (cancelled ones never run); a
  leased claim, whichever worker asks, takes the same job.
* **Journal round-trip** — rebuilding a queue from its journal
  restores identical state (``running`` jobs demoted to ``queued``,
  everything else byte-for-byte the same record).
* **Crash-safe submit** — for a crash at any point around the journal
  write, no *acknowledged* job is ever lost and no job is ever
  duplicated; resubmitting after restart converges to exactly one job
  per key.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
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


# -- leased multi-worker properties ------------------------------------------


@given(
    submits=st.lists(
        st.tuples(_SEEDS, st.integers(min_value=0, max_value=9), _CLIENTS),
        max_size=12,
    ),
    owners=st.lists(st.sampled_from(("w0", "w1", "w2")), max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_leased_claims_follow_claim_next_order(submits, owners):
    """Whichever worker asks, a leased claim takes the job an unleased
    ``claim_next`` on a twin queue takes: one dispatch order, whatever
    the fleet."""
    with tempfile.TemporaryDirectory() as tmp:
        leased = JobQueue(Path(tmp) / "leased.json")
        twin = JobQueue(Path(tmp) / "twin.json")
        for seed, priority, client in submits:
            leased.submit(make_spec(seed, priority, client))
            twin.submit(make_spec(seed, priority, client))
        for owner in owners + ["w0"] * len(submits):
            claimed = leased.claim(owner, ttl_s=30.0)
            expected = twin.claim_next()
            assert (claimed is None) == (expected is None)
            if claimed is None:
                break
            assert claimed[0].key == expected.key


#: Per supervision round: does w0 finish its claim, does w1 finish its
#: claim (False = that worker "crashes" holding the lease), and does
#: the whole server crash-and-rebuild afterwards.
_ROUNDS = st.lists(
    st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=6
)


@given(ops=_ops, rounds=_ROUNDS)
@settings(max_examples=40, deadline=None)
def test_sharded_claims_never_lose_or_duplicate_jobs(ops, rounds):
    """Two leased workers over the one journal, workers and the whole
    queue crashing at arbitrary points: after every rebuild the journal
    holds exactly one record per submitted key, finished work stays
    finished, and abandoned claims come back claimable."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.json"
        queue = JobQueue(path)
        for op in ops:
            _apply(queue, op, "flow")
        submitted = {j.key for j in queue.jobs()}
        finished = set()

        for w0_finishes, w1_finishes, server_crashes in rounds:
            for worker, finishes in (("w0", w0_finishes), ("w1", w1_finishes)):
                claimed = queue.claim(worker, ttl_s=30.0)
                if claimed is None:
                    continue
                job, lease = claimed
                assert job.owner == worker and job.lease_token == lease.token
                if finishes:
                    assert (
                        queue.finish(job.key, ok=True, token=lease.token)
                        is not None
                    )
                    finished.add(job.key)
                # else: the worker dies holding the lease — nothing is
                # released; recovery happens at rebuild time.
            if server_crashes:
                # Rebuild purely from the on-disk journal.
                queue = JobQueue(path)

        restored = JobQueue(path)
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
            for j in JobQueue(path).jobs()
            if j.key not in finished and j.state == DONE
        )


def _parent_record(key, seed, priority, seq, state, owner=None, token=None):
    """One job record as servers wrote it before the per-job execution
    budget was retired: the spec carries ``jobs``/``task_timeout``/
    ``retries``."""
    spec = {
        "circuit": "s27", "task": "flow", "seed": seed,
        "tgen_mode": "random", "tgen_max_len": 64, "compaction_sims": 0,
        "l_g": 32, "synthesize_hardware": False, "static_prune": False,
        "sim_backend": "auto", "population": 8, "generations": 2,
        "priority": priority, "client": "alice",
        "jobs": 1, "task_timeout": None, "retries": 2,
    }
    return {
        "kind": "job", "key": key, "spec": spec, "seq": seq,
        "state": state, "error": None,
        "attempts": 0 if state == "queued" else 1, "stats": {},
        "owner": owner, "version": 0 if state == "queued" else 2,
        "lease_token": token,
    }


def test_parent_format_state_dir_restores_every_job(tmp_path):
    """Every job of a parent-format journal restores, the job leased to
    ``w1`` when the server died comes back queued, new tokens fence
    above the journaled one, and the ``shards/`` directory next to the
    journal is not read: its newer ``done`` record for that job is
    ignored, so the job runs again."""
    done = "c76763e4f8f172c48488df842d5b7fb9"
    running = "09dbfb2891688094a3fb733dca9d8f0a"
    queued = "1b9e84a21ebe3ba4939978cc2fdfb71f"
    entries = {
        done: _parent_record(done, 1, 0, 0, "done"),
        running: _parent_record(running, 2, 3, 1, "running", "w1", 17),
        queued: _parent_record(queued, 3, 0, 2, "queued"),
    }
    shard_only = {**entries[running], "state": "done", "version": 3}
    queue_dir = tmp_path / "queue"
    (queue_dir / "shards").mkdir(parents=True)
    (queue_dir / "shards" / "shard-w1.json").write_text(
        json.dumps({"format": 1, "entries": {running: shard_only}})
    )
    (queue_dir / "journal.json").write_text(
        json.dumps({"format": 1, "entries": entries})
    )

    queue = JobQueue(queue_dir / "journal.json")
    assert {j.key: j.state for j in queue.jobs()} == {
        done: DONE,
        running: QUEUED,
        queued: QUEUED,
    }
    revived = queue.get(running)
    assert revived.owner is None and revived.lease_token is None
    assert revived.spec == make_spec(2, priority=3)
    job, lease = queue.claim("w0", ttl_s=30.0)
    assert job.key == running and lease.token > 17


# -- spec validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        {"circuit": "s27", "synthesize_hardware": "no"},
        {"circuit": "s27", "seed": "x"},
        {"circuit": "s27", "seed": 1.5},
        {"circuit": "s27", "priority": 5.5},
        {"circuit": "s27", "tgen_max_len": True},
    ],
    ids=["bool-as-str", "seed-str", "seed-float", "priority-float",
         "int-as-bool"],
)
def test_spec_refuses_a_mistyped_field(payload):
    name = next(k for k in payload if k != "circuit")
    with pytest.raises(ServeError, match=name):
        JobSpec.from_dict(payload)


_ANY_VALUE = st.one_of(
    st.booleans(),
    st.integers(min_value=-3, max_value=3000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(("s27", "flow", "optimize", "random", "auto", "x", "")),
    st.none(),
)


@given(
    payload=st.dictionaries(
        st.sampled_from(sorted(JobSpec.__dataclass_fields__)), _ANY_VALUE
    )
)
@settings(max_examples=200, deadline=None)
def test_spec_from_dict_is_well_typed_or_refused(payload):
    """Any mix of field types: either every field of the spec has its
    declared type, or the payload is refused with ``ServeError``."""
    payload = {"circuit": "s27", **payload}
    try:
        spec = JobSpec.from_dict(payload)
    except ServeError:
        return
    for spec_field in dataclasses.fields(spec):
        value = getattr(spec, spec_field.name)
        assert type(value).__name__ == spec_field.type, spec_field.name
