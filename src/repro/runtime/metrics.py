"""Instrumentation for the runtime layer.

:class:`RuntimeStats` is a plain counter/timer bag shared by the
executor, the artifact cache and the simulators a
:class:`~repro.runtime.context.RuntimeContext` is wired into.  It
answers the questions the flows care about: how many full fault
simulations actually ran, how many were served from the cache, how
well the worker pool was utilized, and where the wall-clock time went.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator


@dataclass
class RuntimeStats:
    """Counters and timers for one runtime context.

    Attributes
    ----------
    jobs:
        Worker count of the executor the stats are attached to.
    full_simulations:
        Whole-sequence fault simulations actually executed.
    full_sim_hits:
        Whole-sequence fault simulations served from the cache.
    screen_simulations:
        Screening (``detects_any``) simulations actually executed.
    screen_hits:
        Screening verdicts served from the cache.
    cache_misses / cache_stores / cache_discards / cache_evictions:
        Cache bookkeeping: lookups that missed, entries written,
        corrupted or version-mismatched entries dropped, entries
        removed by the LRU size cap.
    tasks_dispatched:
        Work units handed to the executor's worker pool.
    speculative_discards:
        Batched screening verdicts thrown away because an earlier row
        of the batch changed the procedure state (the serial-equivalence
        rule; see :mod:`repro.core.procedure`).
    task_retries:
        Tasks re-dispatched to the pool after a crash, hang or
        corrupted payload.
    task_timeouts:
        Tasks whose worker exceeded the per-task timeout and was
        abandoned with its pool.
    worker_crashes:
        ``BrokenProcessPool`` events (a worker process died).
    pool_rebuilds:
        Worker pools retired and rebuilt after a crash or hang.
    serial_fallback_tasks:
        Tasks replayed serially in the parent process — either after
        exhausting their retries or after the executor degraded.
    corrupt_results:
        Worker payloads that failed shape validation and were
        discarded (then retried).
    executor_degradations:
        Times an executor gave up on its pool entirely and fell back
        to serial execution for the rest of its life.
    chaos_injections:
        Cache entries deterministically vandalized by an active
        :class:`~repro.resilience.chaos.ChaosSpec`.
    journal_records / journal_skips:
        Circuits checkpointed to the resume journal, and circuits
        skipped on ``--resume`` because a checkpoint already existed.
    lint_diagnostics / lint_errors:
        Findings recorded by the context's lint gate (total, and the
        error-severity subset); see
        :meth:`~repro.runtime.context.RuntimeContext.lint_circuit`.
    parallel_wall_s / worker_busy_s:
        Wall-clock seconds spent inside executor fan-outs and the
        summed busy seconds of the workers during them.
    timers:
        Named wall-clock timers (flow stages, etc.).
    """

    jobs: int = 1
    full_simulations: int = 0
    full_sim_hits: int = 0
    screen_simulations: int = 0
    screen_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_discards: int = 0
    cache_evictions: int = 0
    tasks_dispatched: int = 0
    speculative_discards: int = 0
    task_retries: int = 0
    task_timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallback_tasks: int = 0
    corrupt_results: int = 0
    executor_degradations: int = 0
    chaos_injections: int = 0
    journal_records: int = 0
    journal_skips: int = 0
    lint_diagnostics: int = 0
    lint_errors: int = 0
    parallel_wall_s: float = 0.0
    worker_busy_s: float = 0.0
    timers: Dict[str, float] = field(default_factory=dict)

    # -- derived quantities -------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Total lookups served from the cache."""
        return self.full_sim_hits + self.screen_hits

    @property
    def simulations_executed(self) -> int:
        """Total simulations that actually ran (full + screening)."""
        return self.full_simulations + self.screen_simulations

    @property
    def full_sim_skip_rate(self) -> float:
        """Fraction of full fault simulations the cache avoided."""
        total = self.full_simulations + self.full_sim_hits
        if not total:
            return 0.0
        return self.full_sim_hits / total

    def utilization(self) -> float:
        """Worker utilization across all parallel sections (0..1).

        Busy worker-seconds divided by the capacity of the pool over
        the fanned-out wall time.  1.0 means every worker was busy for
        the whole parallel phase.
        """
        capacity = self.parallel_wall_s * max(self.jobs, 1)
        if capacity <= 0.0:
            return 0.0
        return min(self.worker_busy_s / capacity, 1.0)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and timer in place, keeping ``jobs``.

        In-place matters: the executor, cache and journal of a
        :class:`~repro.runtime.context.RuntimeContext` all hold a
        reference to *this* object, so replacing it would silently
        detach them.  Resetting between jobs lets one long-lived
        context (and its warm worker pool) serve many flows with
        cleanly separated per-job statistics — see
        :meth:`~repro.runtime.context.RuntimeContext.reset_stats`.
        """
        for f in fields(self):
            if f.name == "jobs":
                continue
            if f.name == "timers":
                self.timers.clear()
            else:
                setattr(self, f.name, type(getattr(self, f.name))())

    # -- recording ----------------------------------------------------------

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of a ``with`` block under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = (
                self.timers.get(name, 0.0) + time.perf_counter() - t0
            )

    def add(self, other: "RuntimeStats") -> None:
        """Add ``other``'s counters and timers into these.

        ``jobs`` stays: it describes this context's executor.  A sweep
        folds each whole-flow worker's stats into its own this way.
        """
        for f in fields(self):
            if f.name == "jobs":
                continue
            if f.name == "timers":
                for name, seconds in other.timers.items():
                    self.timers[name] = self.timers.get(name, 0.0) + seconds
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def record_fanout(self, wall_s: float, busy_s: float, tasks: int) -> None:
        """Record one executor fan-out."""
        self.parallel_wall_s += wall_s
        self.worker_busy_s += busy_s
        self.tasks_dispatched += tasks

    def snapshot(self) -> Dict[str, float]:
        """The current value of every counter, for span delta accounting.

        Configuration (``jobs``) and the named timers are excluded —
        they are not monotonic work counters, so a delta of them means
        nothing.
        """
        out: Dict[str, float] = {}
        for name, value in vars(self).items():
            if name in ("jobs", "timers"):
                continue
            out[name] = float(value)
        return out

    # -- rendering ----------------------------------------------------------

    def format(self) -> str:
        """Human-readable summary (what ``repro flow --stats`` prints)."""
        lines = [
            "runtime stats",
            f"  workers              {self.jobs}",
            f"  full simulations     {self.full_simulations} run, "
            f"{self.full_sim_hits} from cache "
            f"({100.0 * self.full_sim_skip_rate:.0f}% skipped)",
            f"  screening sims       {self.screen_simulations} run, "
            f"{self.screen_hits} from cache",
            f"  cache                {self.cache_stores} stored, "
            f"{self.cache_misses} misses, {self.cache_discards} discarded, "
            f"{self.cache_evictions} evicted",
            f"  pool                 {self.tasks_dispatched} tasks, "
            f"{100.0 * self.utilization():.0f}% utilization, "
            f"{self.speculative_discards} speculative verdicts discarded",
        ]
        recoveries = (
            self.task_retries
            + self.task_timeouts
            + self.worker_crashes
            + self.pool_rebuilds
            + self.serial_fallback_tasks
            + self.corrupt_results
            + self.executor_degradations
            + self.chaos_injections
        )
        if recoveries:
            lines.append(
                f"  resilience           {self.task_retries} retries, "
                f"{self.task_timeouts} timeouts, "
                f"{self.worker_crashes} crashes, "
                f"{self.pool_rebuilds} pool rebuilds, "
                f"{self.serial_fallback_tasks} serial replays, "
                f"{self.corrupt_results} corrupt payloads"
                + (
                    f", {self.chaos_injections} cache chaos injections"
                    if self.chaos_injections
                    else ""
                )
                + (
                    " (degraded to serial)"
                    if self.executor_degradations
                    else ""
                )
            )
        if self.journal_records or self.journal_skips:
            lines.append(
                f"  checkpoints          {self.journal_records} recorded, "
                f"{self.journal_skips} resumed"
            )
        if self.lint_diagnostics:
            lines.append(
                f"  lint                 {self.lint_diagnostics} "
                f"diagnostics ({self.lint_errors} errors)"
            )
        if self.timers:
            lines.append("  timers")
            for name in sorted(self.timers):
                lines.append(f"    {name:<18} {self.timers[name]:.3f}s")
        return "\n".join(lines)
