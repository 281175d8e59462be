"""Lease-table and leased-claim semantics: fencing and expiry.

The invariants the multi-worker service stands on, pinned at the unit
level:

* fencing tokens are strictly monotonic — across grants, releases and
  (via the journaled floor) server restarts;
* a stale token can neither finish nor requeue a job, and requeueing
  with the current token works **exactly once** (the drain-time
  double-demotion fix);
* a zero-ttl lease (chaos's ``lease_expire``) stays expired no matter
  how eagerly it is renewed.
"""

from __future__ import annotations

from repro.serve.job import DONE, QUEUED, RUNNING
from repro.serve.lease import LeaseTable
from repro.serve.queue import JobQueue
from tests.test_serve_queue import make_spec


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# -- lease table -------------------------------------------------------------


def test_tokens_are_strictly_monotonic_across_grants():
    table = LeaseTable(clock=FakeClock())
    tokens = [table.grant(f"k{i}", "w0", ttl_s=10.0).token for i in range(5)]
    assert tokens == sorted(tokens)
    assert len(set(tokens)) == 5


def test_observe_token_raises_the_floor():
    table = LeaseTable(clock=FakeClock())
    table.observe_token(41)
    lease = table.grant("k", "w0", ttl_s=10.0)
    assert lease.token == 42


def test_renew_is_fenced_by_token_and_owner():
    clock = FakeClock()
    table = LeaseTable(clock=clock)
    lease = table.grant("k", "w0", ttl_s=10.0)
    assert table.renew("k", "w0", lease.token)
    assert not table.renew("k", "w1", lease.token)  # wrong owner
    assert not table.renew("k", "w0", lease.token + 1)  # wrong token
    assert not table.renew("missing", "w0", lease.token)


def test_zero_ttl_lease_stays_expired_despite_renewal():
    clock = FakeClock()
    table = LeaseTable(clock=clock)
    lease = table.grant("k", "w0", ttl_s=0.0)
    assert lease.expired(clock())
    # Renewal uses the lease's own ttl: deadline = now + 0 = now.
    assert table.renew("k", "w0", lease.token)
    assert lease.expired(clock())
    assert [lease.key for lease in table.expired()] == ["k"]


def test_release_is_fenced_and_expiry_sweep_is_sorted():
    clock = FakeClock()
    table = LeaseTable(clock=clock)
    a = table.grant("b-key", "w0", ttl_s=1.0)
    b = table.grant("a-key", "w1", ttl_s=1.0)
    assert not table.release("b-key", a.token + 99)
    clock.now += 5.0
    assert [lease.key for lease in table.expired()] == ["a-key", "b-key"]
    assert table.release("a-key", b.token)
    assert table.get("a-key") is None
    assert len(table) == 1


def test_none_ttl_never_expires():
    clock = FakeClock()
    table = LeaseTable(clock=clock)
    table.grant("k", "scheduler", ttl_s=None)
    clock.now += 1e9
    assert table.expired() == []


# -- leased claims on the queue ----------------------------------------------


def test_finish_is_fenced_by_the_current_token(tmp_path):
    queue = JobQueue(tmp_path / "journal.json")
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=30.0)
    assert queue.finish(job.key, ok=True, token=lease.token + 7) is None
    assert queue.stale_finishes == 1
    assert queue.get(job.key).state == RUNNING
    # The unleased legacy form is refused on a leased job.
    assert queue.finish(job.key, ok=True) is None
    assert queue.stale_finishes == 2
    finished = queue.finish(job.key, ok=True, token=lease.token)
    assert finished is not None and finished.state == DONE
    assert finished.lease_token is None
    assert len(queue.leases) == 0


def test_requeue_demotes_exactly_once(tmp_path):
    """The drain-time fix: two recovery paths racing on one claim
    (supervisor sweep + signal handling) demote it exactly once."""
    queue = JobQueue(tmp_path / "journal.json")
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=30.0)
    version_before = job.version
    assert queue.requeue(job.key, lease.token) is True
    back = queue.get(job.key)
    assert back.state == QUEUED and back.owner is None
    assert back.version == version_before + 1
    # Second demotion attempt with the same token: fenced no-op.
    assert queue.requeue(job.key, lease.token) is False
    assert queue.get(job.key).version == version_before + 1
    # And the late worker's result is fenced off too.
    assert queue.finish(job.key, ok=True, token=lease.token) is None


def test_expired_lease_is_reclaimed_and_late_result_rejected(tmp_path):
    clock = FakeClock()
    queue = JobQueue(tmp_path / "journal.json", clock=clock)
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=2.0)
    assert queue.expire_leases() == []  # not expired yet
    clock.now += 5.0
    reclaimed = queue.expire_leases()
    assert [lease_.key for lease_ in reclaimed] == [job.key]
    assert queue.get(job.key).state == QUEUED
    # The original worker reports late: fenced.
    assert queue.finish(job.key, ok=True, token=lease.token) is None
    # A fresh claim gets a *higher* token and can finish.
    job2, lease2 = queue.claim("w1", ttl_s=30.0)
    assert job2.key == job.key and lease2.token > lease.token
    assert queue.finish(job2.key, ok=True, token=lease2.token) is not None


def test_heartbeat_renewal_extends_a_live_lease(tmp_path):
    clock = FakeClock()
    queue = JobQueue(tmp_path / "journal.json", clock=clock)
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=3.0)
    clock.now += 2.0
    assert queue.renew(job.key, "w0", lease.token)
    clock.now += 2.0  # 4s since claim, 2s since renewal: still alive
    assert queue.expire_leases() == []
    assert queue.lease_valid(job.key, lease.token)


def test_token_floor_survives_restart(tmp_path):
    path = tmp_path / "journal.json"
    queue = JobQueue(path)
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=30.0)
    # Crash with the claim journaled; the restarted queue must mint
    # tokens strictly above anything the old life ever granted.
    restored = JobQueue(path)
    assert restored.get(job.key).state == QUEUED
    job2, lease2 = restored.claim("w0", ttl_s=30.0)
    assert lease2.token > lease.token


def test_chaos_lease_expire_grants_a_dead_on_arrival_lease(tmp_path):
    from repro.resilience.chaos import ChaosSpec

    queue = JobQueue(
        tmp_path / "journal.json", chaos=ChaosSpec(lease_expire=1.0)
    )
    queue.submit(make_spec(1))
    job, lease = queue.claim("w0", ttl_s=30.0)
    assert lease.ttl_s == 0.0
    reclaimed = queue.expire_leases()
    assert [lease_.key for lease_ in reclaimed] == [job.key]
    assert queue.get(job.key).state == QUEUED
