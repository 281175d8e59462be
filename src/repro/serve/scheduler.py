"""Job scheduler: claims queued jobs and runs them on one runtime.

One scheduler thread drains the queue in dispatch order (the queue
itself encodes priority, FIFO and client fair-share) and runs each job
through :func:`~repro.flows.full_flow.run_full_flow`.

**One context.**  A job is one flow (or one search), which runs in the
scheduler's process, so every job runs on the same
:class:`~repro.runtime.context.RuntimeContext`:
:meth:`RuntimeContext.reset_stats` zeroes the counters in place between
jobs, and :meth:`RuntimeContext.attach_tracer` swaps in a per-job
tracer, so each job still gets cleanly separated stats and its own
span tree.  Results are bit-identical to a fresh context by the
runtime layer's standing guarantee.

**Per-job tracing.**  Every job runs inside a ``job`` span on its own
tracer; the normalized projection is persisted next to the result and
served at ``GET /jobs/<key>/trace``.  Lifecycle events
(``job_running``, ``job_done``, ...) additionally fire on the *server*
tracer when one is attached, so a ``repro serve --trace`` artifact
attributes every job's lifecycle in Perfetto.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.runtime.context import RuntimeContext
from repro.runtime.metrics import RuntimeStats
from repro.serve.job import Job
from repro.serve.metrics import ServeMetrics
from repro.serve.progress import ProgressBook
from repro.serve.queue import JobQueue
from repro.serve.results import ResultStore
from repro.serve.worker import execute_job
from repro.trace.events import TraceEvent
from repro.trace.span import Tracer


class Scheduler:
    """The dispatch loop, on its own daemon thread.

    Parameters
    ----------
    queue / results / metrics:
        The server's shared components.
    server_tracer:
        Optional tracer owned by the server; job lifecycle events fire
        on it (under its currently open span) when present.
    progress:
        Optional :class:`~repro.serve.progress.ProgressBook`; when
        present, lifecycle transitions and the running job's
        deterministic tracer events are posted to it live.
    poll_s:
        Idle sleep between queue polls.
    cache_dir / enable_cache / chaos_text:
        Configure the runtime context every job runs on
        (:attr:`runtime`, closed by :meth:`stop`).
    """

    def __init__(
        self,
        queue: JobQueue,
        results: ResultStore,
        metrics: ServeMetrics,
        server_tracer: Optional[Tracer] = None,
        progress: Optional[ProgressBook] = None,
        poll_s: float = 0.05,
        *,
        cache_dir: Optional[str] = None,
        enable_cache: bool = True,
        chaos_text: Optional[str] = None,
    ) -> None:
        self.queue = queue
        self.results = results
        self.metrics = metrics
        self.runtime = RuntimeContext(
            cache_dir=cache_dir, enable_cache=enable_cache, chaos=chaos_text
        )
        self.server_tracer = server_tracer
        self.progress = progress
        self.poll_s = poll_s
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._current_key: Optional[str] = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True
        )
        #: Monotonic submit stamps for latency accounting, by job key
        #: (jobs resumed from a previous life have none).
        self.submit_stamps: Dict[str, float] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout_s: Optional[float] = None) -> bool:
        """Ask the loop to stop after the in-flight job and join it.

        Returns True when the thread exited within ``timeout_s``; the
        runtime context is closed then.  The in-flight job is
        *finished, not abandoned* — its result and checkpoint land
        before the thread exits, which is what makes SIGTERM drain
        lossless.
        """
        self._stop.set()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            return False
        self.runtime.close()
        return True

    @property
    def idle(self) -> bool:
        """True when no job is being executed right now."""
        return self._idle.is_set()

    def _server_event(self, kind: str, **attrs: object) -> None:
        if self.server_tracer is not None and not self.server_tracer.finished:
            self.server_tracer.event(kind, **attrs)

    # -- the loop -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim_next()
            if job is None:
                self._stop.wait(self.poll_s)
                continue
            self._idle.clear()
            self._current_key = job.key
            try:
                self._run_job(job)
            finally:
                self._current_key = None
                self._idle.set()

    def _run_job(self, job: Job) -> None:
        key = job.key
        submitted = self.submit_stamps.get(key)
        started = time.monotonic()
        self._server_event(
            "job_running", key=key, circuit=job.spec.circuit,
            priority=job.spec.priority, attempt=job.attempts,
        )
        book = self.progress
        tap: Optional[Callable[[TraceEvent], None]] = None
        if book is not None:
            live = book
            book.post(
                key, "job_running",
                {"circuit": job.spec.circuit, "attempt": job.attempts},
            )

            def _tap(event: TraceEvent) -> None:
                live.post(key, event.kind, event.attrs)

            tap = _tap
        outcome = execute_job(job.spec, self.runtime, progress=tap)
        if not outcome.ok:
            self.queue.finish(key, ok=False, error=outcome.error)
            self.metrics.count("failed")
            self._server_event("job_failed", key=key, error=outcome.error)
            if book is not None:
                book.post(key, "job_failed", {"error": outcome.error})
                book.close(key, "failed")
            return
        assert outcome.payload is not None  # ok outcomes carry a payload
        self.results.put(key, outcome.payload)
        if outcome.trace_json is not None:
            self.results.put_trace(key, outcome.trace_json)
        self.queue.finish(key, ok=True, stats=outcome.stats)
        done = time.monotonic()
        self.metrics.count("completed")
        self.metrics.observe_job(
            queued_s=(started - submitted) if submitted is not None else None,
            run_s=done - started,
            total_s=(done - submitted) if submitted is not None else None,
        )
        self._server_event(
            "job_done", key=key, circuit=job.spec.circuit,
            run_s=round(done - started, 6),
        )
        if book is not None:
            book.post(key, "job_done", {"circuit": job.spec.circuit})
            book.close(key, "done")

    # -- hooks for the server -----------------------------------------------

    def note_submitted(self, key: str) -> None:
        """Stamp a submission time for latency accounting."""
        self.submit_stamps[key] = time.monotonic()

    def worker_snapshots(self) -> List[Dict[str, object]]:
        """The `/healthz` worker view: one in-process pseudo-worker."""
        return [
            {
                "name": "scheduler",
                "alive": self._thread.is_alive(),
                "busy": self._current_key,
                "restarts": 0,
                "heartbeat_age_s": 0.0,
            }
        ]

    def runtime_stats_snapshot(self) -> RuntimeStats:
        """The runtime counters of the running or last job (the
        `/metrics` runtime section)."""
        return self.runtime.stats

    def set_inherited_fds(self, fds: Sequence[int]) -> None:
        """No-op: the in-process scheduler forks no workers."""
