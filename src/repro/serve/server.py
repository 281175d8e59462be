"""The campaign server: queue + scheduler + admission + HTTP, one box.

``CampaignServer`` owns every component and wires the HTTP resources
onto them::

    POST   /jobs              submit a JobSpec (202 new / 200 dedup /
                              429 rate-limited / 503 saturated|draining)
    GET    /jobs              list all jobs in dispatch order
    GET    /jobs/{key}        inspect one job
    DELETE /jobs/{key}        cancel a queued job
    GET    /jobs/{key}/result canonical result bytes of a done job
    GET    /jobs/{key}/trace  the job's normalized trace
    GET    /healthz           liveness + drain state
    GET    /metrics           counters, histograms, queue + runtime stats

All state lives under one ``state_dir`` (queue journal, result store,
artifact cache), so restarting a — possibly SIGKILLed — server on the
same directory resumes exactly where it stopped: acknowledged jobs are
re-queued and complete with byte-identical results.

**Graceful drain.**  SIGINT/SIGTERM flips admission into draining
(503 + Retry-After), lets the in-flight job finish (its result and
checkpoint are persisted), flushes nothing — every journal write was
already atomic — and exits 0.  The e2e suite proves a drain in the
middle of a campaign loses no acknowledged job.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ServeError
from repro.resilience.chaos import ChaosSpec
from repro.serve.admission import (
    DEFAULT_BURST,
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_RATE_PER_S,
    AdmissionController,
)
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    Router,
    handle_connection,
)
from repro.serve.job import DONE, FAILED, Job, JobSpec
from repro.serve.metrics import ServeMetrics
from repro.serve.progress import MAX_WAIT_S, ProgressBook
from repro.serve.queue import JobQueue
from repro.serve.results import ResultStore
from repro.serve.scheduler import Scheduler
from repro.serve.supervisor import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_WORKERS,
    Supervisor,
)
from repro.trace.span import Tracer


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` can tune.

    ``port=0`` binds an ephemeral port (tests and parallel CI);
    ``cache_dir=None`` keeps the artifact cache inside ``state_dir`` so
    one directory carries the server's whole resumable state;
    ``enable_cache=False`` (``--no-cache``) runs every job uncached.

    ``workers=1`` (the default) executes jobs on the in-process
    scheduler; ``workers>=2`` forks that many supervised worker
    processes with leased ownership (``lease_ttl_s``) and heartbeat
    monitoring (``heartbeat_timeout_s``) — see
    :mod:`repro.serve.supervisor`.
    """

    state_dir: Union[str, Path]
    host: str = "127.0.0.1"
    port: int = 8037
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    rate_per_s: float = DEFAULT_RATE_PER_S
    burst: int = DEFAULT_BURST
    cache_dir: Optional[Union[str, Path]] = None
    enable_cache: bool = True
    chaos: Optional[str] = None
    drain_grace_s: float = 60.0
    trace_path: Optional[Union[str, Path]] = None
    trace_format: str = "json"
    workers: int = DEFAULT_WORKERS
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S


class CampaignServer:
    """One server instance; build, then :meth:`run` (or embed with
    :class:`ServerThread`)."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        state = Path(config.state_dir)
        self.tracer: Optional[Tracer] = (
            Tracer() if config.trace_path is not None else None
        )
        self.metrics = ServeMetrics()
        if config.workers < 1:
            raise ServeError(f"workers must be >= 1, got {config.workers}")
        service_chaos = (
            ChaosSpec.parse(config.chaos) if config.chaos else None
        )
        self.queue = JobQueue(
            state / "queue" / "journal.json",
            tracer=self.tracer,
            chaos=service_chaos,
        )
        self.results = ResultStore(state / "results")
        cache_dir = (
            Path(config.cache_dir)
            if config.cache_dir is not None
            else state / "cache"
        )
        self.admission = AdmissionController(
            queue_capacity=config.queue_capacity,
            rate_per_s=config.rate_per_s,
            burst=config.burst,
        )
        self.progress = ProgressBook()
        self.scheduler: Union[Scheduler, Supervisor]
        if config.workers >= 2:
            self.scheduler = Supervisor(
                self.queue,
                self.results,
                self.metrics,
                server_tracer=self.tracer,
                progress=self.progress,
                workers=config.workers,
                lease_ttl_s=config.lease_ttl_s,
                heartbeat_timeout_s=config.heartbeat_timeout_s,
                cache_dir=str(cache_dir),
                enable_cache=config.enable_cache,
                chaos_text=config.chaos,
            )
        else:
            self.scheduler = Scheduler(
                self.queue,
                self.results,
                self.metrics,
                server_tracer=self.tracer,
                progress=self.progress,
                cache_dir=str(cache_dir),
                enable_cache=config.enable_cache,
                chaos_text=config.chaos,
            )
        requeued = len(self.queue.running()) + self.queue.depth()
        if requeued:
            self.metrics.count("requeued", requeued)
        self.router = self._build_router()
        self._drained: Optional[asyncio.Event] = None
        self._drain_requested = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.bound_address: Optional[Tuple[str, int]] = None

    # -- routing ------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("POST", "/jobs", self._post_jobs)
        router.add("GET", "/jobs", self._get_jobs)
        router.add("GET", "/jobs/{key}", self._get_job)
        router.add("DELETE", "/jobs/{key}", self._delete_job)
        router.add("GET", "/jobs/{key}/result", self._get_result)
        router.add("GET", "/jobs/{key}/trace", self._get_trace)
        router.add("GET", "/jobs/{key}/events", self._get_job_events)
        router.add("GET", "/healthz", self._get_healthz)
        router.add("GET", "/metrics", self._get_metrics)
        return router

    def _event(self, kind: str, **attrs: object) -> None:
        if self.tracer is not None and not self.tracer.finished:
            self.tracer.event(kind, **attrs)

    # -- handlers -----------------------------------------------------------

    async def _post_jobs(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ServeError("job spec must be a JSON object")
        spec = JobSpec.from_dict(payload)
        self.metrics.count("submissions")
        decision = self.admission.admit(spec, self.queue)
        if not decision.admitted:
            self.metrics.count(
                "rejected_rate_limited"
                if decision.status == 429
                else "rejected_saturated"
            )
            self._event(
                "job_rejected", key=spec.key(), client=spec.client,
                status=decision.status,
            )
            return HttpResponse.error(
                decision.status, decision.reason, decision.retry_after_s
            )
        job = decision.job
        assert job is not None  # admitted decisions carry the job
        if decision.shed is not None:
            self.metrics.count("shed")
            self._event("job_shed", key=decision.shed.key)
            self.progress.post(decision.shed.key, "job_shed")
            self.progress.close(decision.shed.key, "shed")
        if decision.status == 202:
            self.metrics.count("admitted")
            self.scheduler.note_submitted(job.key)
            self._event(
                "job_admitted", key=job.key, client=spec.client,
                priority=spec.priority,
            )
            self._event("job_queued", key=job.key)
            # A resubmitted cancelled or shed job is created again under
            # its old key, whose feed the cancel or shed closed.
            self.progress.reopen(job.key)
            self.progress.post(
                job.key, "job_queued",
                {"circuit": spec.circuit, "priority": spec.priority},
            )
        else:
            self.metrics.count("deduplicated")
        body: Dict[str, object] = dict(job.to_dict())
        body["created"] = decision.status == 202
        if decision.shed is not None:
            body["shed"] = decision.shed.key
        return HttpResponse.json(decision.status, body)

    async def _get_jobs(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            200,
            {
                "jobs": [job.to_dict() for job in self.queue.jobs()],
                "queue_depth": self.queue.depth(),
            },
        )

    def _job_or_404(self, request: HttpRequest) -> Union[Job, HttpResponse]:
        key = request.params["key"]
        job = self.queue.get(key)
        if job is None:
            return HttpResponse.error(404, f"no such job: {key}")
        return job

    async def _get_job(self, request: HttpRequest) -> HttpResponse:
        job = self._job_or_404(request)
        if isinstance(job, HttpResponse):
            return job
        return HttpResponse.json(200, job.to_dict())

    async def _delete_job(self, request: HttpRequest) -> HttpResponse:
        job = self._job_or_404(request)
        if isinstance(job, HttpResponse):
            return job
        cancelled = self.queue.cancel(job.key)
        if cancelled is None:
            return HttpResponse.error(
                409,
                f"job {job.key} is {job.state}; only queued jobs cancel",
            )
        self.metrics.count("cancelled")
        self._event("job_cancelled", key=job.key)
        self.progress.post(job.key, "job_cancelled")
        self.progress.close(job.key, "cancelled")
        return HttpResponse.json(200, cancelled.to_dict())

    async def _get_result(self, request: HttpRequest) -> HttpResponse:
        job = self._job_or_404(request)
        if isinstance(job, HttpResponse):
            return job
        if job.state == FAILED:
            return HttpResponse.error(
                409, f"job {job.key} failed: {job.error}"
            )
        if job.state != DONE:
            return HttpResponse.error(
                409, f"job {job.key} is {job.state}; no result yet"
            )
        data = self.results.get_bytes(job.key)
        if data is None:
            return HttpResponse.error(
                500, f"job {job.key} is done but its result is missing"
            )
        return HttpResponse(status=200, body=data)

    async def _get_trace(self, request: HttpRequest) -> HttpResponse:
        job = self._job_or_404(request)
        if isinstance(job, HttpResponse):
            return job
        data = self.results.get_trace(job.key)
        if data is None:
            return HttpResponse.error(
                409, f"job {job.key} has no trace yet (state: {job.state})"
            )
        return HttpResponse(status=200, body=data)

    async def _get_job_events(self, request: HttpRequest) -> HttpResponse:
        """Long-poll the job's live progress feed.

        ``?since=<seq>`` returns events with ``seq >= since``;
        ``?timeout=<s>`` (capped) is how long the request parks when
        nothing new exists yet.  The response carries ``next`` (the
        cursor for the follow-up poll) and ``closed`` (no more events
        will ever come: poll no further).
        """
        job = self._job_or_404(request)
        if isinstance(job, HttpResponse):
            return job
        key = job.key
        since = request.query_int("since", 0)
        if since < 0:
            raise ServeError(f"since must be >= 0, got {since}")
        timeout_s = min(
            max(request.query_float("timeout", 25.0), 0.0), MAX_WAIT_S
        )
        # The book decides when a feed it has seen is closed: the queue
        # marks a job terminal before its last event (``job_done``,
        # ``job_failed``) reaches the book.  Only a job the book never
        # saw, one that ended in an earlier server life, closes on its
        # queue state.
        events, book_closed = self.progress.snapshot(key, since)
        if (
            not events
            and not book_closed
            and (self.progress.seen(key) or not job.terminal)
            and timeout_s
        ):
            # Park off the event loop; posts wake the condition.
            events, book_closed = await asyncio.to_thread(
                self.progress.wait, key, since, timeout_s
            )
        current = self.queue.get(key)
        state = current.state if current is not None else job.state
        terminal = current.terminal if current is not None else job.terminal
        closed = book_closed if self.progress.seen(key) else terminal
        next_seq = (
            max(int(e["seq"]) for e in events) + 1  # type: ignore[call-overload]
            if events
            else max(since, self.progress.next_seq(key))
        )
        return HttpResponse.json(
            200,
            {
                "key": key,
                "state": state,
                "closed": bool(closed),
                "next": next_seq,
                "events": events,
            },
        )

    async def _get_healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            200,
            {
                "status": "draining" if self.admission.draining else "ok",
                "queue_depth": self.queue.depth(),
                "scheduler_idle": self.scheduler.idle,
                "jobs": self.queue.counts(),
                "workers": self.scheduler.worker_snapshots(),
            },
        )

    async def _get_metrics(self, request: HttpRequest) -> HttpResponse:
        runtime = self.scheduler.runtime_stats_snapshot()
        payload = self.metrics.to_dict()
        payload["queue"] = {
            "depth": self.queue.depth(),
            "capacity": self.config.queue_capacity,
            "jobs": self.queue.counts(),
            "active_leases": len(self.queue.leases),
            "stale_finishes": self.queue.stale_finishes,
        }
        payload["runtime"] = runtime.snapshot()
        payload["runtime"]["jobs"] = runtime.jobs
        return HttpResponse.json(200, payload)

    # -- lifecycle ----------------------------------------------------------

    async def _serve(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        if self._drain_requested:  # drain asked for before start
            self._drained.set()
        self._install_signal_handlers()
        self.scheduler.start()
        # Connection handlers are tracked so a request accepted in the
        # last instant before shutdown is still *answered*: if the loop
        # exited while its task was mid-flight, asyncio would cancel it
        # and the client would hang on a socket nobody ever closes.
        conn_tasks: Set["asyncio.Task[None]"] = set()

        async def tracked(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                conn_tasks.add(task)
                task.add_done_callback(conn_tasks.discard)
            await handle_connection(self.router, reader, writer)

        server = await asyncio.start_server(
            tracked, host=self.config.host, port=self.config.port
        )
        sockets = server.sockets or []
        if not sockets:  # pragma: no cover - start_server guarantees one
            raise ServeError("server bound no sockets")
        host, port = sockets[0].getsockname()[:2]
        self.bound_address = (host, port)
        # Workers respawned after this point would inherit the bound
        # listening socket (fork semantics) and keep the port alive
        # past the server's death — tell the supervisor which fds its
        # children must close.
        self.scheduler.set_inherited_fds(
            tuple(sock.fileno() for sock in sockets)
        )
        if ready is not None:
            ready(host, port)
        async with server:
            await self._drained.wait()
            await self._drain()
        await server.wait_closed()
        # The listener is gone, but a connection accepted in the last
        # loop iterations may only now materialise as a handler task —
        # give the loop a few beats and answer every straggler before
        # the loop (and with it any half-open socket) disappears.
        for _ in range(3):
            await asyncio.sleep(0.05)
            pending = {t for t in conn_tasks if not t.done()}
            if not pending:
                break
            await asyncio.wait(pending, timeout=5.0)

    def run(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> int:
        """Serve until drained (by signal or :meth:`request_drain`);
        returns a process exit code."""
        try:
            asyncio.run(self._serve(ready))
        except OSError as exc:  # port in use, bad host, ...
            raise ServeError(
                f"cannot serve on {self.config.host}:{self.config.port}: "
                f"{exc}"
            ) from exc
        return 0

    def _install_signal_handlers(self) -> None:
        if self._loop is None:
            return
        if threading.current_thread() is not threading.main_thread():
            return  # embedded (ServerThread): drained programmatically
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(sig, self.request_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # exotic platform/embedding: rely on request_drain

    def request_drain(self) -> None:
        """Begin graceful drain (idempotent, thread-safe)."""
        self.admission.start_draining()
        self._drain_requested = True
        loop, drained = self._loop, self._drained
        if loop is not None and drained is not None:
            try:
                loop.call_soon_threadsafe(drained.set)
            except RuntimeError:
                pass  # loop already closed: the drain has happened

    async def _drain(self) -> None:
        """Finish the in-flight job, then persist the trace."""
        self.admission.start_draining()
        stopped = await asyncio.to_thread(
            self.scheduler.stop, self.config.drain_grace_s
        )
        if not stopped:  # pragma: no cover - grace exhausted
            # The running job keeps its 'running' journal record; a
            # restart demotes it to 'queued' and reruns it — the flow
            # is deterministic, so nothing is lost either way.
            pass
        self._export_trace()

    def _export_trace(self) -> None:
        if self.tracer is None or self.config.trace_path is None:
            return
        from repro.trace.export import export_trace

        root = self.tracer.finish()
        export_trace(
            root,
            self.tracer.events,
            self.config.trace_path,
            self.config.trace_format,
        )


class ServerThread:
    """Run a :class:`CampaignServer` on a background thread (tests,
    benchmarks, the example script).

    >>> with ServerThread(ServerConfig(state_dir=d, port=0)) as url:
    ...     ServeClient(url).healthz()
    """

    def __init__(self, config: ServerConfig) -> None:
        self.server = CampaignServer(config)
        self._ready = threading.Event()
        self._error: List[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        try:
            self.server.run(ready=lambda host, port: self._ready.set())
        except BaseException as exc:  # surfaced by __enter__/stop
            self._error.append(exc)
            self._ready.set()

    @property
    def url(self) -> str:
        address = self.server.bound_address
        if address is None:
            raise ServeError("server is not listening yet")
        return f"http://{address[0]}:{address[1]}"

    def start(self, timeout_s: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServeError("server did not come up in time")
        if self._error:
            raise ServeError(f"server failed to start: {self._error[0]}")
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        self.server.request_drain()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise ServeError("server did not drain in time")
        if self._error:
            raise ServeError(f"server crashed: {self._error[0]}")

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
