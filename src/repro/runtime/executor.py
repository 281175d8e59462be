"""Executor layer: serial and process-pool execution of independent work.

A single flow always runs in the calling process.  The vector kernel
packs a whole fault list into one word pass, drops detected faults from
it as it goes and reuses step code compiled once per process; cutting
that pass into per-worker pieces loses all three.  Parallelism goes to
work that is independent as a whole:

* **Whole flows** — :meth:`ProcessExecutor.run_flows` runs one
  ``run_full_flow`` per task, each worker under its own serial
  :class:`~repro.runtime.context.RuntimeContext`;
  :func:`repro.flows.experiments.table6_rows` spends ``--jobs`` on the
  circuits of a sweep this way.  Every side effect (journal, stats,
  trace) stays with the parent, which receives each result as it is
  accepted.

Both executors also keep three fault-level shapes with no caller in the
library: fault-group sharding (:meth:`~ProcessExecutor.run_fault_groups`,
:meth:`~ProcessExecutor.run_group_tasks`) and screening batches
(:meth:`~ProcessExecutor.screen_batch`).  ``benchmarks/perf`` wraps them
by name in every traced run, and the resilience tests drive the
recovery paths below through them.

Workers receive circuits as canonical ``.bench`` text or library names,
never live objects.  Results are returned in task order — parallel
execution is *deterministic by construction*; worker count never
changes any result.

Fault tolerance
---------------
:class:`ProcessExecutor` survives the failure modes a long sweep
actually meets, under the knobs of a
:class:`~repro.resilience.policy.RetryPolicy`:

* a **crashed worker** (``BrokenProcessPool``) retires the pool,
  rebuilds it, and re-dispatches the unfinished tasks;
* a **hung worker** (no result within ``task_timeout``) is abandoned
  with its pool and the victim task retried;
* a **corrupted payload** (a result that fails shape validation, e.g.
  injected by the chaos harness) is discarded and the task retried;
* a task that keeps failing past ``retries`` attempts is **replayed
  serially** in the parent process — the same worker function on the
  same payload, so the result is identical by construction;
* after ``max_pool_rebuilds`` pool failures the executor **degrades to
  serial execution** for all remaining work.

Every path re-runs pure functions of immutable task payloads, so the
bit-identical-results-for-any-worker-count invariant survives any
combination of failures.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.resilience.chaos import ChaosSpec, chaos_call, task_digest
from repro.resilience.policy import RetryPolicy
from repro.runtime.metrics import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.span import Tracer

#: Per-worker-process memo of compiled fault simulators, keyed by a
#: digest of the circuit's ``.bench`` text.
_WORKER_SIMS: Dict[str, object] = {}

#: A task function maps one payload to ``(result, busy_seconds)``.
TaskFn = Callable[[Any], Tuple[Any, float]]

#: A validator decides whether a worker's payload is structurally sound.
Validator = Callable[[Any], bool]

#: Called in the parent with ``(task_index, result)`` as each result is
#: accepted.
ResultHook = Callable[[int, Any], None]

_UNSET = object()


@dataclass(frozen=True)
class FlowEnv:
    """What a whole-flow worker's serial context takes from its parent.

    Attributes
    ----------
    cache_dir:
        The parent's cache root, or None when its cache is off.
    max_cache_bytes:
        The parent cache's LRU size cap.
    lint:
        The parent's lint policy.
    sim_backend:
        The parent's default fault-simulation backend.
    chaos:
        The parent's chaos spec; in a serial context only its ``cache``
        mode acts.
    trace:
        Record a trace for the parent to graft (it is tracing).
    """

    cache_dir: Optional[str]
    max_cache_bytes: int
    lint: str
    sim_backend: str
    chaos: Optional[ChaosSpec]
    trace: bool


def _worker_sim(bench_text: str, backend: Optional[str] = None):
    """The (memoized) fault simulator for ``bench_text`` in this process."""
    key = hashlib.sha1(bench_text.encode("utf-8")).hexdigest()
    if backend is not None:
        key = f"{key}:{backend}"
    sim = _WORKER_SIMS.get(key)
    if sim is None:
        # Imported lazily: workers under the ``spawn`` start method
        # import this module before the package is fully initialized.
        from repro.circuit.bench import parse_bench_text
        from repro.sim.faultsim import FaultSimulator

        sim = FaultSimulator(
            parse_bench_text(bench_text, name="worker"), backend=backend
        )
        _WORKER_SIMS[key] = sim
    return sim


def _run_group_task(task) -> Tuple[object, float]:
    """Worker: whole-sequence fault simulation of one fault group.

    Tasks are 5-tuples, optionally extended with a sixth element naming
    the sim backend the dispatching simulator resolved to.
    """
    bench_text, stimulus, faults, record_lines, stop = task[:5]
    backend = task[5] if len(task) > 5 else None
    t0 = time.perf_counter()
    sim = _worker_sim(bench_text, backend)
    result = sim.run(
        stimulus,
        faults,
        record_lines=record_lines,
        stop_when_all_detected=stop,
    )
    return result, time.perf_counter() - t0


def _screen_task(task) -> Tuple[bool, float]:
    """Worker: one screening (``detects_any``) run."""
    bench_text, stimulus, sample = task[:3]
    backend = task[3] if len(task) > 3 else None
    t0 = time.perf_counter()
    sim = _worker_sim(bench_text, backend)
    return sim.detects_any(stimulus, sample), time.perf_counter() - t0


def _flow_task(task) -> Tuple[Tuple[object, Optional[tuple]], float]:
    """Worker: one whole flow under a fresh serial runtime context.

    ``task`` is ``(circuit_name, flow_config, env)`` with ``env`` a
    :class:`FlowEnv`.  The context has no journal: the parent journals
    each flow it accepts, so it stays the journal's only writer.  The
    result is ``(flow, trace)``; ``trace`` is the worker's
    ``(root.to_dict(), [event.to_dict(), ...])``, or None untraced.
    """
    name, config, env = task
    t0 = time.perf_counter()
    # Imported lazily: the runtime context imports this module.
    from repro.flows.full_flow import run_full_flow
    from repro.runtime.context import RuntimeContext

    with RuntimeContext(
        jobs=1,
        cache_dir=env.cache_dir,
        enable_cache=env.cache_dir is not None,
        max_cache_bytes=env.max_cache_bytes,
        lint=env.lint,
        chaos=env.chaos,
        trace=env.trace,
        sim_backend=env.sim_backend,
    ) as rt:
        rt.journal = None
        flow = run_full_flow(name, config, runtime=rt)
        trace: Optional[tuple] = None
        if rt.tracer is not None:
            root = rt.tracer.finish()
            trace = (root.to_dict(), [e.to_dict() for e in rt.tracer.events])
    return (flow, trace), time.perf_counter() - t0


def _valid_flow_result(result: Any) -> bool:
    """A flow payload must be a ``(FlowResult, trace)`` pair."""
    return (
        isinstance(result, tuple)
        and len(result) == 2
        and hasattr(result[0], "table6")
    )


def _valid_group_result(result: Any) -> bool:
    """A fault-group payload must look like a ``FaultSimResult``."""
    return (
        hasattr(result, "detection_time")
        and hasattr(result, "undetected")
        and hasattr(result, "n_faults")
    )


def _valid_screen_result(result: Any) -> bool:
    """A screening payload must be a plain verdict."""
    return isinstance(result, bool)


class SerialExecutor:
    """In-process executor — the jobs=1 reference implementation.

    Runs every task inline via the same worker functions the pool uses,
    so the two paths cannot drift apart.
    """

    jobs = 1

    def __init__(
        self,
        stats: RuntimeStats | None = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer = tracer

    def _add_task_span(self, label: str, task: Any, busy_s: float) -> None:
        if self.tracer is not None:
            self.tracer.add_task_span(label, task_digest(task), busy_s)

    def run_fault_groups(
        self,
        bench_text: str,
        stimulus,
        groups: Sequence[Sequence],
        record_lines: bool,
        stop_when_all_detected: bool,
        backend: Optional[str] = None,
    ) -> List[object]:
        """Simulate each fault group; per-group results in group order."""
        out = []
        for group in groups:
            task = (
                bench_text, stimulus, group, record_lines, stop_when_all_detected
            )
            if backend is not None:
                task = task + (backend,)
            result, elapsed = _run_group_task(task)
            self._add_task_span("fault_group", task, elapsed)
            out.append(result)
        return out

    def run_group_tasks(self, tasks: Sequence) -> List[object]:
        """Simulate pre-built fault-group tasks; results in task order.

        Unlike :meth:`run_fault_groups`, tasks may span *different*
        stimuli (the optimizer evaluates many candidate sequences in
        one fan-out).  Each task is the usual 5-tuple
        ``(bench_text, stimulus, group, record_lines, stop)``.
        """
        out = []
        for task in tasks:
            result, elapsed = _run_group_task(task)
            self._add_task_span("fault_group", task, elapsed)
            out.append(result)
        return out

    def screen_batch(
        self,
        bench_text: str,
        stimuli: Sequence,
        sample: Sequence,
        backend: Optional[str] = None,
    ) -> List[bool]:
        """Screen each stimulus against ``sample``; verdicts in order."""
        out = []
        for stimulus in stimuli:
            task = (bench_text, stimulus, sample)
            if backend is not None:
                task = task + (backend,)
            verdict, elapsed = _screen_task(task)
            self._add_task_span("screen", task, elapsed)
            out.append(verdict)
        return out

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ProcessExecutor:
    """``concurrent.futures.ProcessPoolExecutor``-backed executor.

    The pool is created lazily on first use and reused across calls;
    workers keep their compiled circuits between tasks.  Results are
    collected in task order, so merged results are identical to the
    serial executor's.

    ``policy`` governs recovery from crashed/hung workers and
    corrupted payloads (see the module docstring); ``chaos`` wires in
    the deterministic fault-injection harness — pool dispatches only,
    never serial replays, so exhausted retries always converge on the
    correct result.
    """

    def __init__(
        self,
        jobs: int,
        stats: RuntimeStats | None = None,
        policy: RetryPolicy | None = None,
        chaos: ChaosSpec | None = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if jobs < 2:
            raise ValueError(f"ProcessExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        self.stats = stats if stats is not None else RuntimeStats()
        self.policy = policy if policy is not None else RetryPolicy()
        self.chaos = chaos
        self.tracer = tracer
        self._pool: Optional[_ProcessPool] = None
        self._rebuilds = 0
        self._degraded = False

    def _event(self, kind: str, **attrs: object) -> None:
        if self.tracer is not None:
            self.tracer.event(kind, **attrs)

    @property
    def degraded(self) -> bool:
        """True once repeated pool failures forced serial execution."""
        return self._degraded

    def _pool_instance(self) -> _ProcessPool:
        if self._pool is None:
            self._pool = _ProcessPool(max_workers=self.jobs)
        return self._pool

    def _submit(
        self, pool: _ProcessPool, fn: TaskFn, task: Any, attempt: int
    ) -> "Future[Tuple[Any, float]]":
        if self.chaos is not None and self.chaos.affects_workers:
            return pool.submit(chaos_call, (self.chaos, fn, attempt, task))
        return pool.submit(fn, task)

    def _retire_pool(self) -> None:
        """Throw the current pool away; degrade after repeated failures."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.stats.pool_rebuilds += 1
        self._rebuilds += 1
        self._event("pool_rebuild", rebuilds=self._rebuilds)
        if (
            self._rebuilds >= self.policy.max_pool_rebuilds
            and not self._degraded
        ):
            self._degraded = True
            self.stats.executor_degradations += 1
            self._event("executor_degraded", rebuilds=self._rebuilds)

    # -- the fault-tolerant fan-out -----------------------------------------

    def _map(
        self,
        fn: TaskFn,
        tasks: List[Any],
        validate: Validator,
        label: str,
        on_result: Optional[ResultHook] = None,
    ) -> List[Any]:
        """Run every task; results in task order, whatever fails."""
        batch = _Batch(fn, tasks, validate, on_result)
        t0 = time.perf_counter()
        try:
            self._run_all(batch)
        finally:
            # Fan-out accounting must survive task exceptions — a
            # failed batch still dispatched work and burnt wall time.
            self.stats.record_fanout(
                time.perf_counter() - t0, sum(batch.busy), len(tasks)
            )
            # Task spans are merged in *task order* with stable keys,
            # so the trace is independent of scheduling and PIDs.
            if self.tracer is not None:
                for task, task_busy in zip(tasks, batch.busy):
                    self.tracer.add_task_span(label, task_digest(task), task_busy)
        return batch.results

    def _run_all(self, batch: "_Batch") -> None:
        pending = list(range(len(batch.tasks)))
        attempts = [0] * len(batch.tasks)
        while pending:
            if self._degraded:
                for i in pending:
                    self._run_inline(batch, i)
                return
            blamed, innocent = self._pool_round(batch, pending, attempts)
            pending = self._settle(batch, blamed, innocent, attempts)

    def _pool_round(
        self, batch: "_Batch", pending: List[int], attempts: List[int]
    ) -> Tuple[List[int], List[int]]:
        """One dispatch round.

        Returns ``(blamed, innocent)``: tasks whose failure consumes a
        retry attempt, and tasks merely displaced by someone else's
        failure (resubmitted free of charge).
        """
        tasks = batch.tasks
        try:
            pool = self._pool_instance()
            futures = [
                (i, self._submit(pool, batch.fn, tasks[i], attempts[i]))
                for i in pending
            ]
        except BrokenProcessPool:
            self.stats.worker_crashes += 1
            self._event("worker_crash", at="dispatch")
            self._retire_pool()
            return list(pending), []

        blamed: List[int] = []
        innocent: List[int] = []
        broken = False
        for i, fut in futures:
            if broken:
                # The pool is gone; harvest whatever already finished
                # and resubmit the rest without blame.
                if fut.cancelled():
                    innocent.append(i)
                elif fut.done():
                    try:
                        result, elapsed = fut.result()
                    except BaseException:
                        blamed.append(i)
                        continue
                    self._accept(batch, i, result, elapsed, blamed)
                else:
                    fut.cancel()
                    innocent.append(i)
                continue
            try:
                result, elapsed = fut.result(
                    timeout=self.policy.task_timeout
                )
            except _FuturesTimeout:
                # Hung worker: abandon the pool (the only way to
                # reclaim the process) and retry the victim.
                self.stats.task_timeouts += 1
                self._event("task_timeout", task=task_digest(tasks[i]))
                blamed.append(i)
                broken = True
                self._retire_pool()
                continue
            except BrokenProcessPool:
                # A worker died; every unfinished task is suspect.
                self.stats.worker_crashes += 1
                self._event("worker_crash", task=task_digest(tasks[i]))
                blamed.append(i)
                broken = True
                self._retire_pool()
                continue
            # Any other exception is a deterministic error raised by
            # the task itself (bad circuit, invalid fault, ...) —
            # retrying cannot change it, so it propagates.  The
            # enclosing finally still records the fan-out.
            self._accept(batch, i, result, elapsed, blamed)
        return blamed, innocent

    def _accept(
        self,
        batch: "_Batch",
        i: int,
        result: Any,
        elapsed: float,
        blamed: List[int],
    ) -> None:
        if batch.validate(result):
            batch.settle(i, result, elapsed)
        else:
            self.stats.corrupt_results += 1
            self._event("corrupt_result", index=i)
            blamed.append(i)

    def _settle(
        self,
        batch: "_Batch",
        blamed: List[int],
        innocent: List[int],
        attempts: List[int],
    ) -> List[int]:
        """Charge retry attempts; replay exhausted tasks serially."""
        still = list(innocent)
        worst = 0
        for i in blamed:
            attempts[i] += 1
            if attempts[i] > self.policy.retries:
                self._run_inline(batch, i)
            else:
                self.stats.task_retries += 1
                self._event(
                    "task_retry",
                    task=task_digest(batch.tasks[i]),
                    attempt=attempts[i],
                )
                still.append(i)
                worst = max(worst, attempts[i])
        if still and worst:
            delay = self.policy.backoff(worst)
            if delay > 0:
                time.sleep(delay)
        return sorted(still)

    def _run_inline(self, batch: "_Batch", i: int) -> None:
        """Serial replay: the same pure function on the same payload —
        the result is what the pool would have produced."""
        task = batch.tasks[i]
        self._event("serial_replay", task=task_digest(task))
        result, elapsed = batch.fn(task)
        self.stats.serial_fallback_tasks += 1
        batch.settle(i, result, elapsed)

    # -- the work shapes ----------------------------------------------------

    def run_fault_groups(
        self,
        bench_text: str,
        stimulus,
        groups: Sequence[Sequence],
        record_lines: bool,
        stop_when_all_detected: bool,
        backend: Optional[str] = None,
    ) -> List[object]:
        """Simulate fault groups on the pool; results in group order."""
        extra = () if backend is None else (backend,)
        tasks = [
            (bench_text, stimulus, group, record_lines, stop_when_all_detected)
            + extra
            for group in groups
        ]
        return self._map(
            _run_group_task, tasks, _valid_group_result, "fault_group"
        )

    def run_group_tasks(self, tasks: Sequence) -> List[object]:
        """Simulate pre-built fault-group tasks on the pool.

        Results come back in task order; see
        :meth:`SerialExecutor.run_group_tasks` for the task shape.
        """
        return self._map(
            _run_group_task, list(tasks), _valid_group_result, "fault_group"
        )

    def screen_batch(
        self,
        bench_text: str,
        stimuli: Sequence,
        sample: Sequence,
        backend: Optional[str] = None,
    ) -> List[bool]:
        """Screen stimuli on the pool; verdicts in task order."""
        extra = () if backend is None else (backend,)
        tasks = [
            (bench_text, stimulus, sample) + extra for stimulus in stimuli
        ]
        return self._map(_screen_task, tasks, _valid_screen_result, "screen")

    def run_flows(
        self, tasks: Sequence, on_result: Optional[ResultHook] = None
    ) -> List[object]:
        """Run whole flows on the pool; ``(flow, trace)`` pairs in task
        order (see :func:`_flow_task` for the task shape).

        ``on_result(i, outcome)`` runs in the parent as each outcome is
        accepted, from the pool or from a serial replay, so a sweep can
        checkpoint a finished flow before the slowest one ends.
        """
        return self._map(
            _flow_task, list(tasks), _valid_flow_result, "flow", on_result
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Queued tasks are cancelled, so an interrupted sweep starts no
        further flow; running ones finish first.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Batch:
    """One fan-out: its tasks and the results accepted so far."""

    def __init__(
        self,
        fn: TaskFn,
        tasks: List[Any],
        validate: Validator,
        on_result: Optional[ResultHook],
    ) -> None:
        self.fn = fn
        self.tasks = tasks
        self.validate = validate
        self.on_result = on_result
        self.results: List[Any] = [_UNSET] * len(tasks)
        self.busy = [0.0] * len(tasks)

    def settle(self, i: int, result: Any, elapsed: float) -> None:
        """Accept task ``i``'s result and hand it to the hook."""
        self.results[i] = result
        self.busy[i] = elapsed
        if self.on_result is not None:
            self.on_result(i, result)


def make_executor(
    jobs: int,
    stats: RuntimeStats | None = None,
    policy: RetryPolicy | None = None,
    chaos: ChaosSpec | None = None,
    tracer: Optional["Tracer"] = None,
):
    """A :class:`SerialExecutor` for ``jobs <= 1``, else a
    :class:`ProcessExecutor` under ``policy`` (and, for tests of the
    recovery paths, ``chaos``)."""
    if jobs <= 1:
        return SerialExecutor(stats, tracer=tracer)
    return ProcessExecutor(jobs, stats, policy=policy, chaos=chaos, tracer=tracer)
