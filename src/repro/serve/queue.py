"""Durable, crash-safe job queue with leased ownership.

The queue is a key → :class:`~repro.serve.job.Job` map with a dispatch
order (priority tiers, FIFO inside a tier, fair-share across clients)
and an on-disk journal.  Persistence reuses the resilience layer's
:class:`~repro.resilience.journal.CheckpointJournal` — atomic
whole-file rewrites, versioned, merged, never trusted — so the
durability guarantees are exactly the ones the checkpoint/resume path
already proves:

* **Crash-safe submit.**  A job is journaled *before* the submitter is
  acknowledged; after any crash the journal contains every
  acknowledged job exactly once (an unacknowledged one either made the
  atomic rewrite or left no trace — never a torn record).
* **Dedup by content.**  The job key is content-addressed over the
  result-determining spec fields, so resubmitting the same computation
  returns the existing job (whatever its state) instead of queueing a
  duplicate.
* **Restart = requeue.**  On restart, jobs journaled ``running`` are
  demoted to ``queued`` (the flow they were running is deterministic
  and its completed stages sit in the artifact cache, so the rerun is
  cheap and byte-identical); terminal jobs stay terminal.

Multi-worker service mode adds **leases** (:mod:`repro.serve.lease`)
on top.  :meth:`claim` grants the claiming worker a journaled lease —
monotonic fencing token plus deadline — instead of bare ownership,
and picks the job exactly as :meth:`claim_next` does.  :meth:`finish`
and :meth:`requeue` are token-fenced: a worker whose lease expired (or
whose job the supervisor already reclaimed) presents a stale token and
is rejected, so no result is ever double-applied and no job is
double-demoted.  The token floor is restored past the journal's
high-water mark on restart, so fencing survives server lives.

Every transition, leased or not, is written to the one journal by the
process that owns the queue, under the queue lock; workers never
write it.

All public methods are thread-safe — the HTTP loop submits and
cancels while scheduler/supervisor threads claim and finish.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from pathlib import Path

from repro.resilience.chaos import ChaosSpec
from repro.resilience.journal import CheckpointJournal
from repro.runtime.metrics import RuntimeStats
from repro.trace.span import Tracer
from repro.serve.job import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    Job,
    JobSpec,
)
from repro.serve.lease import Lease, LeaseTable


class JobQueue:
    """Priority/FIFO job queue with a durable journal and lease table.

    Parameters
    ----------
    journal_path:
        The queue journal file (atomic whole-file rewrites).  Pass the
        same path to a restarted server to resume the queue.
    stats / tracer:
        Optional :class:`~repro.runtime.metrics.RuntimeStats` /
        :class:`~repro.trace.span.Tracer` forwarded to the journal so
        checkpoint writes are counted and traced like every other.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosSpec`; its
        ``lease_expire`` mode grants already-expired leases.
    clock:
        Monotonic clock for lease deadlines (injectable for tests).
    """

    def __init__(
        self,
        journal_path: Union[str, Path],
        stats: Optional[RuntimeStats] = None,
        tracer: Optional[Tracer] = None,
        chaos: Optional[ChaosSpec] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._journal = CheckpointJournal(
            journal_path, stats=stats, tracer=tracer
        )
        self._chaos = chaos
        self.leases = LeaseTable(clock=clock)
        #: Token-fenced finishes rejected as stale (metrics surface this).
        self.stale_finishes = 0
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._next_seq = 0
        #: Fair-share bookkeeping: the claim round at which each client
        #: was last served (lower = served longer ago = goes first).
        self._last_served: Dict[str, int] = {}
        self._claim_round = 0
        self._restore()

    # -- persistence --------------------------------------------------------

    def _restore(self) -> None:
        """Load the journal; demote ``running`` jobs to ``queued``."""
        for key in self._journal.keys():
            payload = self._journal.get(key)
            if payload is None:
                continue
            try:
                job = Job.from_dict(payload)
            except Exception:
                continue  # foreign or stale record: recompute, never trust
            if job.key != key:
                continue
            if job.lease_token is not None:
                # Restore the fencing floor past every token ever granted.
                self.leases.observe_token(job.lease_token)
            if job.state == RUNNING:
                job.state = QUEUED
                job.owner = None
                job.lease_token = None
                job.version += 1
                self._checkpoint(job)
            self._jobs[key] = job
            self._next_seq = max(self._next_seq, job.seq + 1)

    def _checkpoint(self, job: Job) -> None:
        self._journal.record(job.key, job.to_dict())

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Accept ``spec``; returns ``(job, created)``.

        ``created`` is False when a job with the same content key
        already exists (dedup) — the existing job is returned whatever
        its state, so a client resubmitting finished work is handed
        the finished job.  A previously cancelled or shed job *is*
        revived (requeued under its old key): cancellation removes
        work from the queue, it does not ban the computation.
        """
        key = spec.key()
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None:
                if existing.state in (CANCELLED, SHED):
                    existing.spec = spec
                    existing.state = QUEUED
                    existing.error = None
                    existing.seq = self._next_seq
                    existing.version += 1
                    self._next_seq += 1
                    self._checkpoint(existing)
                    return existing, True
                return existing, False
            job = Job(spec=spec, seq=self._next_seq)
            self._next_seq += 1
            # Journal *before* acknowledging: an acked job survives any
            # crash; a crash before this line leaves no trace at all.
            self._jobs[key] = job
            self._checkpoint(job)
            return job, True

    # -- dispatch -----------------------------------------------------------

    def _queued_jobs(self) -> List[Job]:
        return [j for j in self._jobs.values() if j.state == QUEUED]

    def _select(self) -> Optional[Job]:
        """Pick (and account) the next queued job; None when none is.

        Order: highest priority tier first; inside the tier, the
        *client served longest ago* goes first (fair share — one chatty
        client cannot starve the others), and FIFO within a client.
        """
        queued = self._queued_jobs()
        if not queued:
            return None
        top = max(j.spec.priority for j in queued)
        tier = [j for j in queued if j.spec.priority == top]
        job = min(
            tier,
            key=lambda j: (self._last_served.get(j.spec.client, -1), j.seq),
        )
        self._claim_round += 1
        self._last_served[job.spec.client] = self._claim_round
        return job

    def claim_next(self) -> Optional[Job]:
        """Claim the next job to run, unleased (in-process scheduler).

        The job is marked ``running`` with no owner and no lease; the
        scheduler thread that claimed it cannot outlive its server, so
        a deadline would only expire work that is still progressing.
        """
        with self._lock:
            job = self._select()
            if job is None:
                return None
            job.state = RUNNING
            job.attempts += 1
            job.version += 1
            self._checkpoint(job)
            return job

    def claim(
        self, owner: str, ttl_s: Optional[float]
    ) -> Optional[Tuple[Job, Lease]]:
        """Claim the next job under a lease for worker ``owner``.

        The job is the one :meth:`claim_next` would pick.  Chaos's
        ``lease_expire`` mode replaces the ttl with zero, granting a
        lease that is already past its deadline.
        """
        with self._lock:
            job = self._select()
            if job is None:
                return None
            attempt = job.attempts + 1
            ttl = ttl_s
            if self._chaos is not None and self._chaos.decide(
                "lease_expire", job.key, owner, attempt
            ):
                ttl = 0.0
            lease = self.leases.grant(job.key, owner, ttl)
            job.state = RUNNING
            job.attempts = attempt
            job.owner = owner
            job.lease_token = lease.token
            job.version += 1
            self._checkpoint(job)
            return job, lease

    def renew(self, key: str, owner: str, token: int) -> bool:
        """Extend ``owner``'s lease on ``key`` (heartbeat); token-fenced."""
        with self._lock:
            return self.leases.renew(key, owner, token)

    def lease_valid(self, key: str, token: int) -> bool:
        """Whether ``token`` is still the current lease on ``key``.

        The supervisor checks this *before* persisting a worker's
        result bytes, so a fenced-off worker's payload never reaches
        the result store at all.
        """
        with self._lock:
            return self.leases.validate(key, token)

    def finish(
        self,
        key: str,
        ok: bool,
        error: Optional[str] = None,
        stats: Optional[Dict[str, float]] = None,
        token: Optional[int] = None,
    ) -> Optional[Job]:
        """Mark a running job ``done`` (or ``failed``).

        For leased jobs the worker's fencing ``token`` must match the
        *current* lease: a worker whose lease expired — or whose job
        was requeued and re-leased to someone else — is rejected, and
        the rejection counted in :attr:`stale_finishes`.  The unleased
        form (``token=None``) is refused on leased jobs.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.state != RUNNING:
                if token is not None:
                    self.stale_finishes += 1
                return None
            lease = self.leases.get(key)
            if token is None:
                if lease is not None:
                    self.stale_finishes += 1
                    return None
            else:
                if lease is None or lease.token != token:
                    self.stale_finishes += 1
                    return None
                self.leases.release(key, token)
            job.state = DONE if ok else FAILED
            job.error = error
            if stats:
                job.stats = dict(stats)
            job.lease_token = None
            job.version += 1
            self._checkpoint(job)
            return job

    def requeue(self, key: str, token: int) -> bool:
        """Demote a leased running job back to ``queued``; idempotent.

        Only the holder of the *current* fencing token can demote, and
        demotion clears the lease — so two recovery paths racing on
        the same claim (supervisor restart sweep and signal-time drain,
        say) demote **exactly once**: the second presents a token that
        no longer matches and is a no-op.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.state != RUNNING:
                return False
            lease = self.leases.get(key)
            if lease is None or lease.token != token:
                return False
            self.leases.release(key, token)
            self._demote(job)
            return True

    def expire_leases(self, now: Optional[float] = None) -> List[Lease]:
        """Reclaim every job whose lease deadline has passed.

        Expired claims are demoted back to ``queued`` (lease cleared,
        so the late worker's token is fenced off) and the reclaimed
        leases returned for the supervisor's metrics.
        """
        with self._lock:
            reclaimed: List[Lease] = []
            for lease in self.leases.expired(now):
                self.leases.release(lease.key, lease.token)
                job = self._jobs.get(lease.key)
                if job is not None and job.state == RUNNING:
                    self._demote(job)
                reclaimed.append(lease)
            return reclaimed

    def _demote(self, job: Job) -> None:
        """running → queued (lock held; lease already released)."""
        job.state = QUEUED
        job.owner = None
        job.lease_token = None
        job.version += 1
        self._checkpoint(job)

    # -- cancellation and shedding ------------------------------------------

    def cancel(self, key: str) -> Optional[Job]:
        """Cancel a *queued* job; running or terminal jobs are left
        alone (returns None for them)."""
        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.state != QUEUED:
                return None
            job.state = CANCELLED
            job.version += 1
            self._checkpoint(job)
            return job

    def shed_lowest(self, below_priority: int) -> Optional[Job]:
        """Evict the lowest-priority queued job, if one sits strictly
        below ``below_priority`` (admission control's load shedding).

        The *youngest* job of the lowest tier goes — shedding the
        oldest would starve work that has already waited longest.
        """
        with self._lock:
            queued = self._queued_jobs()
            if not queued:
                return None
            bottom = min(j.spec.priority for j in queued)
            if bottom >= below_priority:
                return None
            victim = max(
                (j for j in queued if j.spec.priority == bottom),
                key=lambda j: j.seq,
            )
            victim.state = SHED
            victim.version += 1
            self._checkpoint(victim)
            return victim

    # -- inspection ---------------------------------------------------------

    def get(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(key)

    def jobs(self) -> List[Job]:
        """Every known job, in dispatch order then terminal states."""
        with self._lock:
            return sorted(
                self._jobs.values(),
                key=lambda j: (j.terminal, j.sort_key()),
            )

    def depth(self) -> int:
        """Number of jobs waiting to run."""
        with self._lock:
            return len(self._queued_jobs())

    def running(self) -> List[Job]:
        with self._lock:
            return [j for j in self._jobs.values() if j.state == RUNNING]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero states omitted)."""
        with self._lock:
            out: Dict[str, int] = {}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __repr__(self) -> str:
        return f"JobQueue({self._journal.path}, {len(self)} jobs)"
