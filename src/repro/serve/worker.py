"""Job workers: the shared execution core and the worker process.

Three pieces live here:

* :func:`execute_job` — the one true way to run a campaign job on a
  runtime context.  The in-process :class:`~repro.serve.scheduler.
  Scheduler` and every supervised worker process call the same
  function, so a job's payload, trace and stats are byte-identical
  whichever execution mode computed them.
* :func:`_worker_main` — the entry point of a supervised worker
  process.  A worker receives claims over a pipe, runs them on its own
  runtime context, heartbeats from a background thread, and reports
  results *with its fencing token* back to the supervisor.  It never
  touches the queue, the journal or the result store: a worker
  orphaned by a SIGKILLed server is harmless by construction and exits
  on the broken pipe.  Workers ignore SIGTERM/SIGINT — recovery of an
  in-flight claim is the **supervisor's** job (token-fenced requeue),
  which is what makes drain-time demotion exactly-once even when a
  terminal delivers the signal to the whole process group.
* :class:`WorkerHandle` — the supervisor's view of one worker:
  process + pipe + heartbeat age + current assignment, with spawn /
  kill / poll primitives the supervisor composes into monitoring.

Chaos's service modes are injected *inside the worker*, keyed on
``(job key, attempt)`` — deterministic for a given seed no matter
which worker draws the job or how often the supervisor restarts
workers, so every campaign under chaos still converges.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flows.full_flow import run_full_flow
from repro.resilience.chaos import ChaosSpec
from repro.runtime.context import RuntimeContext
from repro.serve.job import JobSpec
from repro.serve.progress import PROGRESS_KINDS
from repro.serve.results import flow_result_payload, optimize_result_payload
from repro.trace.compare import phase_durations
from repro.trace.events import TraceEvent
from repro.trace.normalize import normalized_json
from repro.trace.span import Tracer

#: Stats counters worth echoing onto the finished job record.
_JOB_STAT_KEYS = (
    "full_simulations",
    "full_sim_hits",
    "screen_simulations",
    "screen_hits",
    "tasks_dispatched",
    "task_retries",
    "serial_fallback_tasks",
)


@dataclass
class JobOutcome:
    """Everything one job execution produced (pipe-serializable)."""

    ok: bool
    payload: Optional[Dict[str, object]]
    trace_json: Optional[str]
    stats: Dict[str, float]
    #: Full runtime-stats snapshot of the run (metrics aggregation).
    snapshot: Dict[str, int]
    error: Optional[str]


def execute_job(
    spec: JobSpec,
    runtime: RuntimeContext,
    progress: Optional[Callable[[TraceEvent], None]] = None,
) -> JobOutcome:
    """Run one job on ``runtime``; never raises for flow errors.

    The context is *reused*: stats are reset in place and a fresh
    per-job tracer attached, so its cache handle carries over while
    counters and spans do not.  Results are bit-identical
    to a fresh context by the runtime layer's standing guarantee.

    ``progress`` is an optional live tap: it is called with every
    *deterministic* tracer event (:data:`~repro.serve.progress.
    PROGRESS_KINDS`) as the job runs, feeding the server's long-poll
    events endpoint.  It never influences the result.
    """
    key = spec.key()
    runtime.reset_stats()
    on_event: Optional[Callable[[TraceEvent], None]] = None
    if progress is not None:
        tap = progress

        def _forward(event: TraceEvent) -> None:
            if event.kind in PROGRESS_KINDS:
                tap(event)

        on_event = _forward
    tracer = Tracer(stats=runtime.stats, on_event=on_event)
    runtime.attach_tracer(tracer)
    try:
        with tracer.span(
            "job", key=key, job=key, circuit=spec.circuit,
            seed=spec.seed, l_g=spec.l_g, task=spec.task,
        ):
            if spec.task == "optimize":
                from repro.optimize import run_optimize

                payload = optimize_result_payload(
                    run_optimize(
                        spec.circuit, spec.optimize_config(), runtime=runtime
                    )
                )
            else:
                payload = flow_result_payload(
                    run_full_flow(
                        spec.circuit, spec.flow_config(), runtime=runtime
                    )
                )
    except ReproError as exc:
        return JobOutcome(
            ok=False,
            payload=None,
            trace_json=None,
            stats={},
            snapshot=dict(runtime.stats.snapshot()),
            error=str(exc),
        )
    finally:
        runtime.attach_tracer(None)
    snapshot = dict(runtime.stats.snapshot())
    stats = {
        name: float(value)
        for name, value in snapshot.items()
        if name in _JOB_STAT_KEYS and value
    }
    root = tracer.finish()
    # Phase wall seconds ride on the job record's stats (machine-
    # dependent, so deliberately *not* part of the canonical result
    # bytes) — the campaign warehouse ingests them from there.
    for phase, seconds in phase_durations(root).items():
        if phase in ("trace", "job"):
            continue
        stats[f"phase:{phase}"] = seconds
    return JobOutcome(
        ok=True,
        payload=payload,
        trace_json=normalized_json(root, tracer.events),
        stats=stats,
        snapshot=snapshot,
        error=None,
    )


class _HeartbeatPump(threading.Thread):
    """Background thread beating the worker's pipe every ``period_s``.

    Chaos's hang/stall modes *pause* the pump — the worker falls
    silent exactly as a truly wedged process would — and a finished
    job resumes it.
    """

    def __init__(
        self,
        conn: multiprocessing.connection.Connection,
        send_lock: threading.Lock,
        period_s: float,
    ) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self._conn = conn
        self._send_lock = send_lock
        self._period_s = period_s
        self._enabled = threading.Event()
        self._enabled.set()
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._period_s):
            if not self._enabled.is_set():
                continue
            try:
                with self._send_lock:
                    self._conn.send({"op": "heartbeat"})
            except (OSError, ValueError, BrokenPipeError):
                return  # supervisor gone; the main loop exits on EOF

    def pause(self) -> None:
        self._enabled.clear()

    def resume(self) -> None:
        self._enabled.set()

    def stop(self) -> None:
        self._stopped.set()


def _worker_main(
    conn: multiprocessing.connection.Connection,
    name: str,
    cache_dir: Optional[str],
    enable_cache: bool,
    chaos_text: Optional[str],
    heartbeat_s: float,
    close_fds: Sequence[int],
) -> None:
    """Worker-process entry point: claims in, results out, forever.

    Exits cleanly on a ``stop`` message or a broken pipe (supervisor
    died).  Never writes shared state — the fencing token it echoes on
    every result is its only authority, and the supervisor's queue is
    the only judge of it.
    """
    # Drain is the supervisor's problem: a worker that also reacted to
    # SIGTERM would race it demoting the same claim.  Ignoring the
    # signal here is what makes drain-time demotion exactly-once.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - platform quirk
        pass
    for fd in close_fds:
        # Inherited fds this worker must not hold: the server's
        # listening socket (or a dead server's port stays bound after a
        # post-bind respawn) and — critically — the supervisor end of
        # this worker's own pipe, copied in by fork.  Holding one's own
        # peer means ``recv`` below could never see EOF, and an orphan
        # would outlive a SIGKILLed server forever.
        try:
            os.close(fd)
        except OSError:
            pass
    chaos = ChaosSpec.parse(chaos_text) if chaos_text else None
    service_chaos = chaos if chaos is not None and chaos.affects_service else None
    runtime = RuntimeContext(
        cache_dir=cache_dir, enable_cache=enable_cache, chaos=chaos
    )
    send_lock = threading.Lock()
    pump = _HeartbeatPump(conn, send_lock, heartbeat_s)
    pump.start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # supervisor gone: orphaned workers just exit
            if not isinstance(msg, dict) or msg.get("op") != "run":
                break  # "stop" (or anything unexpected): clean exit
            key = str(msg["key"])
            token = int(msg["token"])
            attempt = int(msg["attempt"])
            spec = JobSpec.from_dict(msg["spec"])
            if service_chaos is not None and service_chaos.decide(
                "kill_claim", key, attempt
            ):
                # The journaled lease is the only trace of this claim.
                os.kill(os.getpid(), signal.SIGKILL)
            if service_chaos is not None and service_chaos.decide(
                "worker_hang", key, attempt
            ):
                pump.pause()
                time.sleep(service_chaos.hang_s)

            def _progress(event: TraceEvent) -> None:
                # Best-effort: progress lost on a dying pipe is fine;
                # the main loop exits on EOF soon after anyway.
                try:
                    with send_lock:
                        conn.send(
                            {
                                "op": "progress",
                                "key": key,
                                "token": token,
                                "kind": event.kind,
                                "attrs": dict(event.attrs),
                            }
                        )
                except (OSError, ValueError, BrokenPipeError):
                    pass

            outcome = execute_job(spec, runtime, progress=_progress)
            if (
                outcome.ok
                and service_chaos is not None
                and service_chaos.decide("worker_crash", key, attempt)
            ):
                os._exit(23)  # computed, never reported
            if service_chaos is not None and service_chaos.decide(
                "worker_stall", key, attempt
            ):
                pump.pause()
                time.sleep(service_chaos.hang_s)
            try:
                with send_lock:
                    conn.send(
                        {
                            "op": "done",
                            "key": key,
                            "token": token,
                            "ok": outcome.ok,
                            "payload": outcome.payload,
                            "trace": outcome.trace_json,
                            "stats": outcome.stats,
                            "snapshot": outcome.snapshot,
                            "error": outcome.error,
                        }
                    )
            except (OSError, ValueError, BrokenPipeError):
                break
            pump.resume()
    finally:
        pump.stop()
        runtime.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class WorkerHandle:
    """The supervisor's handle on one (re)spawnable worker process."""

    def __init__(
        self,
        name: str,
        cache_dir: Optional[str],
        enable_cache: bool,
        chaos_text: Optional[str],
        heartbeat_s: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.cache_dir = cache_dir
        self.enable_cache = enable_cache
        self.chaos_text = chaos_text
        self.heartbeat_s = heartbeat_s
        self._clock: Callable[[], float] = (
            time.monotonic if clock is None else clock
        )
        #: Listening-socket fds a respawned worker must close.
        self.close_fds: Tuple[int, ...] = ()
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        #: Current assignment: ``(key, token, attempt)`` or None.
        self.busy: Optional[Tuple[str, int, int]] = None
        self.restarts = 0
        self.last_heartbeat = 0.0

    def spawn(self) -> None:
        """Fork a fresh worker process on a fresh pipe."""
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.name,
                self.cache_dir,
                self.enable_cache,
                self.chaos_text,
                self.heartbeat_s,
                # The child must close its fork-inherited copy of the
                # supervisor end of its own pipe, or its recv() never
                # sees EOF when the supervisor dies (SIGKILL leaves no
                # one else to tell it).
                self.close_fds + (parent_conn.fileno(),),
            ),
            name=f"repro-serve-{self.name}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.busy = None
        self.last_heartbeat = self._clock()

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def assign(
        self, key: str, token: int, attempt: int, spec: Dict[str, object]
    ) -> bool:
        """Send a claim; False when the pipe is already dead."""
        if self.conn is None:
            return False
        try:
            self.conn.send(
                {
                    "op": "run",
                    "key": key,
                    "token": token,
                    "attempt": attempt,
                    "spec": spec,
                }
            )
        except (OSError, ValueError, BrokenPipeError):
            return False
        self.busy = (key, token, attempt)
        return True

    def poll(self) -> List[Dict[str, object]]:
        """Drain pending messages; any message counts as a heartbeat.

        Returns the ``done`` and ``progress`` messages in arrival
        order (heartbeats are consumed silently).
        """
        out: List[Dict[str, object]] = []
        conn = self.conn
        if conn is None:
            return out
        while True:
            try:
                if not conn.poll(0):
                    break
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict):
                continue
            self.last_heartbeat = self._clock()
            op = msg.get("op")
            if op == "done":
                self.busy = None
                out.append(msg)
            elif op == "progress":
                out.append(msg)
        return out

    def heartbeat_age(self) -> float:
        return self._clock() - self.last_heartbeat

    def request_stop(self) -> None:
        """Ask the worker to exit after its current message."""
        if self.conn is None:
            return
        try:
            self.conn.send({"op": "stop"})
        except (OSError, ValueError, BrokenPipeError):
            pass

    def join(self, timeout_s: float) -> bool:
        if self.proc is None:
            return True
        self.proc.join(timeout_s)
        return not self.proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker and reap it; the pipe is closed."""
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()
        if self.proc is not None:
            self.proc.join(5.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conn = None

    def snapshot(self) -> Dict[str, object]:
        """The `/healthz` view of this worker."""
        return {
            "name": self.name,
            "alive": self.alive(),
            "busy": self.busy[0] if self.busy is not None else None,
            "restarts": self.restarts,
            "heartbeat_age_s": round(self.heartbeat_age(), 3),
        }

    def __repr__(self) -> str:
        return f"WorkerHandle({self.name}, alive={self.alive()})"
