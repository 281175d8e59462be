"""The worker supervisor: leases out jobs, restarts what dies.

With ``repro serve --workers N`` (N ≥ 2) the server swaps its
in-process :class:`~repro.serve.scheduler.Scheduler` for a
``Supervisor``: N forked worker processes execute jobs while one
supervisor thread owns every shared mutable thing — the queue, the
lease table, the journal and the result store.  Workers only compute;
their sole authority is the fencing token they echo with each result.
That asymmetry is what makes every failure mode below recoverable:

* **Crash** (process exits, heartbeats stop): the supervisor reaps the
  worker, requeues its leased job (token-fenced, so exactly once) and
  respawns the worker with exponential backoff.
* **Hang/stall** (process alive, heartbeats stale): same treatment,
  plus a SIGKILL first — a wedged worker cannot be reasoned with.
* **Lease expiry** (worker alive but slower than its lease): the
  expiry sweep reclaims the job for someone else; when the original
  worker eventually reports, its token no longer matches and the stale
  result is dropped before it touches the result store.
* **Flapping** (a worker that dies faster than it works): after
  ``max_restarts`` restarts inside ``restart_window_s`` the slot is
  *degraded* — removed from the fleet, counted in metrics — rather
  than restarted forever.  The fleet never degrades below one worker,
  so a campaign always converges.

Each idle worker is leased the job the queue's dispatch order puts
next (:meth:`~repro.serve.queue.JobQueue.claim`), the same order the
in-process scheduler drains, whatever the fleet size.

Results land exactly as the in-process scheduler lands them — same
:func:`~repro.serve.worker.execute_job`, same canonical bytes — so a
multi-worker campaign's results are byte-identical to a serial run's.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.runtime.metrics import RuntimeStats
from repro.serve.metrics import ServeMetrics
from repro.serve.progress import ProgressBook
from repro.serve.queue import JobQueue
from repro.serve.results import ResultStore
from repro.serve.worker import WorkerHandle
from repro.trace.span import Tracer

DEFAULT_WORKERS = 1
DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0


class Supervisor:
    """Lease-based dispatch over a fleet of worker processes.

    Exposes the same surface the in-process
    :class:`~repro.serve.scheduler.Scheduler` does — ``start`` /
    ``stop`` / ``idle`` / ``note_submitted`` / ``worker_snapshots`` /
    ``runtime_stats_snapshot`` — so the server treats both uniformly.

    Parameters
    ----------
    queue / results / metrics:
        The server's shared components.
    workers:
        Fleet size (≥ 2; one worker wants the plain scheduler).
    lease_ttl_s:
        Lease deadline granted per claim; heartbeats renew it.
    heartbeat_s:
        Worker heartbeat period.
    heartbeat_timeout_s:
        Silence after which a worker is declared hung and recycled.
    max_restarts / restart_window_s / restart_backoff_s:
        Flap control: restarts per worker allowed inside the window
        before the slot is degraded, and the base of the exponential
        respawn backoff.
    cache_dir / enable_cache / chaos_text:
        Forwarded to each worker's runtime context; ``chaos_text``
        also arms the service-level injection modes inside workers.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        queue: JobQueue,
        results: ResultStore,
        metrics: ServeMetrics,
        server_tracer: Optional[Tracer] = None,
        progress: Optional[ProgressBook] = None,
        *,
        workers: int = 2,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = 0.5,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        max_restarts: int = 5,
        restart_window_s: float = 30.0,
        restart_backoff_s: float = 0.2,
        poll_s: float = 0.05,
        cache_dir: Optional[str] = None,
        enable_cache: bool = True,
        chaos_text: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.queue = queue
        self.results = results
        self.metrics = metrics
        self.server_tracer = server_tracer
        self.progress = progress
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.restart_backoff_s = restart_backoff_s
        self.poll_s = poll_s
        self.clock = clock
        self._handles: List[WorkerHandle] = [
            WorkerHandle(
                name=f"w{i}",
                cache_dir=cache_dir,
                enable_cache=enable_cache,
                chaos_text=chaos_text,
                heartbeat_s=heartbeat_s,
                clock=clock,
            )
            for i in range(workers)
        ]
        #: Degraded (permanently retired) worker slots, kept for /healthz.
        self._degraded: List[WorkerHandle] = []
        #: Respawn-not-before stamp per worker name (backoff gate).
        self._respawn_at: Dict[str, float] = {}
        #: Recent restart stamps per worker name (flap window).
        self._restart_stamps: Dict[str, List[float]] = {}
        #: Monotonic start stamps of in-flight jobs (latency accounting).
        self._started: Dict[str, float] = {}
        self.submit_stamps: Dict[str, float] = {}
        self._runtime_total = RuntimeStats()
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-supervisor", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for handle in self._handles:
            handle.spawn()
        self._thread.start()

    def stop(self, timeout_s: Optional[float] = None) -> bool:
        """Drain: let busy workers finish, then stop the fleet.

        In-flight jobs are *finished, not abandoned* while the grace
        budget lasts; whatever is still leased when it runs out is
        requeued token-fenced (exactly once) for the next server life.
        """
        grace = 30.0 if timeout_s is None else timeout_s
        self._stop.set()
        self._thread.join(grace)
        if self._thread.is_alive():  # pragma: no cover - grace exhausted
            return False
        deadline = self.clock() + grace
        while self.clock() < deadline:
            for handle in self._fleet():
                for msg in handle.poll():
                    self._handle_message(handle, msg)
                assignment = handle.busy
                if handle.alive() and assignment is not None:
                    key, token, _ = assignment
                    self.queue.renew(key, handle.name, token)
            if all(h.busy is None or not h.alive() for h in self._fleet()):
                break
            time.sleep(self.poll_s)
        for handle in self._fleet():
            handle.request_stop()
        for handle in self._fleet():
            if not handle.join(1.0):
                handle.kill()
            assignment = handle.busy
            if assignment is not None:
                key, token, _ = assignment
                if self.queue.requeue(key, token):
                    self.metrics.count("requeued")
                    self._server_event(
                        "job_requeued", key=key, reason="drain"
                    )
                handle.busy = None
        return True

    @property
    def idle(self) -> bool:
        """True when no worker is executing a job right now."""
        return all(h.busy is None for h in self._fleet())

    def _fleet(self) -> List[WorkerHandle]:
        return list(self._handles)

    def _server_event(self, kind: str, **attrs: object) -> None:
        if self.server_tracer is not None and not self.server_tracer.finished:
            self.server_tracer.event(kind, **attrs)

    # -- the loop -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            progressed = self._tick()
            if not progressed:
                self._stop.wait(self.poll_s)

    def _tick(self) -> bool:
        """One supervision round; True when anything happened."""
        progressed = False
        expired = self.queue.expire_leases()
        if expired:
            self.metrics.count("lease_expiries", len(expired))
            progressed = True
            for lease in expired:
                self._server_event(
                    "lease_expired", key=lease.key, owner=lease.owner
                )
        for handle in self._fleet():
            for msg in handle.poll():
                self._handle_message(handle, msg)
                progressed = True
        for handle in self._fleet():
            if handle.name in self._respawn_at:
                continue  # already down, waiting out its backoff
            if not handle.alive():
                self._recover(handle, reason="crash")
                progressed = True
            elif handle.heartbeat_age() > self.heartbeat_timeout_s:
                self._recover(handle, reason="hang")
                progressed = True
        progressed |= self._respawn_due()
        for handle in self._fleet():
            assignment = handle.busy
            if handle.alive() and assignment is not None:
                key, token, _ = assignment
                self.queue.renew(key, handle.name, token)
        progressed |= self._dispatch()
        return progressed

    def _respawn_due(self) -> bool:
        spawned = False
        now = self.clock()
        for handle in self._fleet():
            due = self._respawn_at.get(handle.name)
            if due is not None and now >= due:
                del self._respawn_at[handle.name]
                handle.spawn()
                spawned = True
        return spawned

    def _dispatch(self) -> bool:
        dispatched = False
        for handle in self._fleet():
            if not handle.alive() or handle.busy is not None:
                continue
            claimed = self.queue.claim(handle.name, self.lease_ttl_s)
            if claimed is None:
                break  # queue empty
            job, lease = claimed
            if not handle.assign(
                job.key, lease.token, job.attempts, job.spec.to_dict()
            ):
                # Worker died between liveness check and send; the
                # liveness sweep will recycle it — reclaim the job now.
                self.queue.requeue(job.key, lease.token)
                continue
            self._started[job.key] = self.clock()
            self._server_event(
                "job_running", key=job.key, circuit=job.spec.circuit,
                priority=job.spec.priority, attempt=job.attempts,
                worker=handle.name,
            )
            if self.progress is not None:
                self.progress.post(
                    job.key, "job_running",
                    {
                        "circuit": job.spec.circuit,
                        "attempt": job.attempts,
                        "worker": handle.name,
                    },
                )
            dispatched = True
        return dispatched

    # -- results ------------------------------------------------------------

    def _handle_message(
        self, handle: WorkerHandle, msg: Dict[str, object]
    ) -> None:
        """Route one worker pipe message (``progress`` or ``done``)."""
        if msg.get("op") == "progress":
            self._handle_progress(handle, msg)
        else:
            self._handle_done(handle, msg)

    def _handle_progress(
        self, handle: WorkerHandle, msg: Dict[str, object]
    ) -> None:
        book = self.progress
        if book is None:
            return
        key = str(msg.get("key"))
        token_raw = msg.get("token")
        token = token_raw if isinstance(token_raw, int) else -1
        if not self.queue.lease_valid(key, token):
            return  # fenced: progress from a superseded claim is noise
        attrs = msg.get("attrs")
        book.post(
            key,
            str(msg.get("kind")),
            attrs if isinstance(attrs, dict) else None,
        )

    def _accumulate(self, snapshot: Dict[str, object]) -> None:
        with self._stats_lock:
            for name, value in snapshot.items():
                if not isinstance(value, (int, float)):
                    continue
                current = getattr(self._runtime_total, name, None)
                if isinstance(current, (int, float)):
                    # snapshot() floats everything; keep int fields int.
                    setattr(
                        self._runtime_total,
                        name,
                        current + type(current)(value),
                    )

    def _handle_done(self, handle: WorkerHandle, msg: Dict[str, object]) -> None:
        key = str(msg.get("key"))
        token_raw = msg.get("token")
        token = token_raw if isinstance(token_raw, int) else -1
        snapshot = msg.get("snapshot")
        if isinstance(snapshot, dict):
            self._accumulate(snapshot)
        if not self.queue.lease_valid(key, token):
            # Fenced: the lease expired (or the job was requeued and
            # re-leased) while this worker was computing.  Its bytes
            # never touch the result store; whoever holds the current
            # lease produces the identical bytes anyway.
            self.metrics.count("stale_results_rejected")
            self._server_event(
                "stale_result_rejected", key=key, worker=handle.name
            )
            return
        if msg.get("ok"):
            payload = msg.get("payload")
            if isinstance(payload, dict):
                self.results.put(key, payload)
            trace = msg.get("trace")
            if isinstance(trace, str):
                self.results.put_trace(key, trace)
            stats_raw = msg.get("stats")
            stats = (
                {str(k): float(v) for k, v in stats_raw.items()}
                if isinstance(stats_raw, dict)
                else None
            )
            if self.queue.finish(key, ok=True, stats=stats, token=token):
                self.metrics.count("completed")
                started = self._started.pop(key, None)
                submitted = self.submit_stamps.get(key)
                done = self.clock()
                self.metrics.observe_job(
                    queued_s=(
                        (started - submitted)
                        if started is not None and submitted is not None
                        else None
                    ),
                    run_s=(done - started) if started is not None else None,
                    total_s=(
                        (done - submitted) if submitted is not None else None
                    ),
                )
                self._server_event(
                    "job_done", key=key, worker=handle.name,
                )
                if self.progress is not None:
                    self.progress.post(
                        key, "job_done", {"worker": handle.name}
                    )
                    self.progress.close(key, "done")
        else:
            error = msg.get("error")
            if self.queue.finish(
                key, ok=False, error=str(error), token=token
            ):
                self.metrics.count("failed")
                self._started.pop(key, None)
                self._server_event(
                    "job_failed", key=key, error=str(error),
                    worker=handle.name,
                )
                if self.progress is not None:
                    self.progress.post(
                        key, "job_failed", {"error": str(error)}
                    )
                    self.progress.close(key, "failed")

    # -- recovery -----------------------------------------------------------

    def _recover(self, handle: WorkerHandle, reason: str) -> None:
        """Kill, reclaim, and schedule the respawn (or degrade)."""
        assignment = handle.busy
        handle.kill()
        handle.busy = None
        if assignment is not None:
            key, token, _ = assignment
            # Token-fenced and idempotent: if the expiry sweep (or a
            # racing drain) already demoted this claim, this is a no-op
            # — the job is demoted exactly once.
            if self.queue.requeue(key, token):
                self.metrics.count("requeued")
                self._server_event("job_requeued", key=key, reason=reason)
                if self.progress is not None:
                    self.progress.post(
                        key, "job_requeued", {"reason": reason}
                    )
                    self.progress.reopen(key)
        handle.restarts += 1
        self.metrics.count("worker_restarts")
        self._server_event(
            "worker_restart", worker=handle.name, reason=reason,
            restarts=handle.restarts,
        )
        now = self.clock()
        stamps = [
            stamp
            for stamp in self._restart_stamps.get(handle.name, [])
            if now - stamp <= self.restart_window_s
        ]
        stamps.append(now)
        self._restart_stamps[handle.name] = stamps
        if len(stamps) > self.max_restarts and len(self._handles) > 1:
            # Flapping: retire the slot instead of burning restarts
            # forever.  Never below one worker — a degraded-to-one
            # fleet is slow, not stuck.
            self._handles.remove(handle)
            self._degraded.append(handle)
            self.metrics.count("workers_degraded")
            self._server_event("worker_degraded", worker=handle.name)
            return
        backoff = min(
            self.restart_backoff_s * (2 ** min(len(stamps) - 1, 6)), 5.0
        )
        self._respawn_at[handle.name] = now + backoff

    # -- hooks for the server -----------------------------------------------

    def note_submitted(self, key: str) -> None:
        """Stamp a submission time for latency accounting."""
        self.submit_stamps[key] = self.clock()

    def worker_snapshots(self) -> List[Dict[str, object]]:
        """The `/healthz` per-worker liveness view."""
        out = [handle.snapshot() for handle in self._fleet()]
        for handle in self._degraded:
            snap = handle.snapshot()
            snap["degraded"] = True
            out.append(snap)
        return out

    def runtime_stats_snapshot(self) -> RuntimeStats:
        """Runtime counters accumulated from worker reports."""
        with self._stats_lock:
            total = RuntimeStats()
            for name, value in vars(self._runtime_total).items():
                if name != "timers":
                    setattr(total, name, value)
            return total

    def set_inherited_fds(self, fds: Sequence[int]) -> None:
        """Server listen-socket fds future respawns must close."""
        for handle in self._handles + self._degraded:
            handle.close_fds = tuple(fds)

    def __repr__(self) -> str:
        return (
            f"Supervisor({len(self._handles)} workers, "
            f"{len(self._degraded)} degraded)"
        )
