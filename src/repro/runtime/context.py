"""The :class:`RuntimeContext`: executor + cache + stats as one handle.

Everything runtime-aware in the library accepts an optional
``runtime`` argument.  ``None`` (the default everywhere) means the
historical behaviour: serial execution, no caching, no counters —
results are *identical* either way; the context only changes how fast
they are obtained.

>>> from repro.runtime import RuntimeContext
>>> with RuntimeContext(jobs=2, cache_dir="/tmp/repro-cache",
...                     enable_cache=True) as rt:     # doctest: +SKIP
...     rows = table6_rows(("g208", "g298", "g386"), runtime=rt)
...     print(rt.stats.format())
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import LintError
from repro.resilience.chaos import ChaosSpec
from repro.resilience.journal import CheckpointJournal
from repro.resilience.policy import RetryPolicy
from repro.runtime.cache import (
    DEFAULT_MAX_BYTES,
    ArtifactCache,
    default_cache_dir,
)
from repro.runtime.executor import FlowEnv, make_executor
from repro.runtime.metrics import RuntimeStats
from repro.trace.span import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.netlist import Circuit
    from repro.hw.tpg import TpgDesign
    from repro.lint.core import LintReport

LINT_POLICIES = ("off", "warn", "strict")
"""Accepted values for :class:`RuntimeContext`'s ``lint`` parameter."""


class RuntimeContext:
    """Bundle of executor, artifact cache and stats.

    Parameters
    ----------
    jobs:
        Worker processes for independent whole flows: a Table-6 sweep
        (:func:`repro.flows.experiments.table6_rows`) runs up to this
        many circuits at once.  A single flow always runs in the
        calling process.  1 (default) runs everything in-process.
        Results are independent of this value by construction.
    cache_dir:
        Cache root.  Turns the cache on when given, unless
        ``enable_cache=False``.
    enable_cache:
        ``True`` turns the artifact cache on (at ``cache_dir`` or the
        default root); ``False`` keeps it off even when ``cache_dir``
        is given.  The default, ``None``, means "on iff ``cache_dir``
        is given", so library callers opt in explicitly; the CLI
        enables it unless ``--no-cache`` is passed.
    max_cache_bytes:
        LRU size cap for the cache.
    stats:
        An existing stats object to record into (a fresh one is
        created otherwise).
    lint:
        Static-diagnostics policy for artifacts flowing through this
        context: ``"off"`` (default) skips linting entirely,
        ``"warn"`` lints circuits and TPG designs on use and records
        the findings in :attr:`stats`, ``"strict"`` additionally
        raises :class:`~repro.errors.LintError` on any error-severity
        finding — the "fail in one second, not after minutes of fault
        simulation" gate.
    task_timeout:
        Per-task timeout for pool workers (seconds); a hung worker is
        abandoned with its pool and the task retried.  A sweep's task
        is a whole flow, so the timeout must exceed the longest one.
        ``None`` (default) waits forever.
    retries:
        Pool re-dispatch attempts per failed/hung/corrupted task
        before the task is replayed serially.
    backoff_s:
        Base exponential-backoff delay between retry rounds.
    max_pool_rebuilds:
        Pool failures tolerated before the executor degrades to
        serial execution.
    chaos:
        Deterministic fault injection: a
        :class:`~repro.resilience.chaos.ChaosSpec` or its string form
        (``"crash=0.2,hang=0.1,corrupt=0.1,cache=0.3,seed=7"``).
        Injections are recovered from, never change results, and only
        exist to exercise the recovery paths.
    resume:
        Consult the checkpoint journal and let multi-circuit sweeps
        skip circuits whose results are already journaled.  The
        journal is *written* whenever the cache is on or ``resume``
        is set (every completed flow checkpoints its Table-6 row
        atomically), under the cache root or else ``cache_dir``, so an
        interrupted sweep is resumable even if it was not started
        with ``resume=True``.
    trace:
        Attach a fresh :class:`~repro.trace.span.Tracer` to this
        context.  Everything runtime-aware then attributes its work to
        hierarchical spans and fires structured events (cache traffic,
        executor recovery, checkpoint writes); read the result from
        :attr:`tracer` after the flow and export it with
        :mod:`repro.trace.export`.  Tracing never changes results.
    tracer:
        Use an existing tracer instead of creating one (implies
        tracing; ``trace`` is then ignored).
    sim_backend:
        Default fault-simulation backend for simulators created under
        this context: ``"auto"`` (default), ``"python"`` or
        ``"vector"``.  An explicit ``backend=`` argument on a simulator
        still wins; see :func:`repro.sim.backend.resolve_backend` for
        the full precedence chain.  Both backends produce bit-identical
        results — this knob only selects the implementation.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        enable_cache: Optional[bool] = None,
        max_cache_bytes: int = DEFAULT_MAX_BYTES,
        stats: RuntimeStats | None = None,
        lint: str = "off",
        task_timeout: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.1,
        max_pool_rebuilds: int = 3,
        chaos: Union[ChaosSpec, str, None] = None,
        resume: bool = False,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
        sim_backend: str = "auto",
    ) -> None:
        # Validate every knob *before* any worker pool exists, so a
        # configuration error can never leak a ProcessPoolExecutor.
        if lint not in LINT_POLICIES:
            raise LintError(
                f"unknown lint policy {lint!r}; expected one of "
                f"{', '.join(LINT_POLICIES)}"
            )
        from repro.sim.backend import validate_backend

        self.sim_backend = validate_backend(sim_backend)
        if isinstance(chaos, str):
            chaos = ChaosSpec.parse(chaos)
        self.chaos = chaos
        self.policy = RetryPolicy(
            task_timeout=task_timeout,
            retries=retries,
            backoff_s=backoff_s,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        self.lint_policy = lint
        self.resume = resume
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer: Optional[Tracer] = tracer
        if trace and self.tracer is None:
            self.tracer = Tracer(stats=self.stats)
        self.executor = make_executor(
            jobs, self.stats, policy=self.policy, chaos=chaos,
            tracer=self.tracer,
        )
        self.stats.jobs = self.executor.jobs
        try:
            self.cache: Optional[ArtifactCache] = None
            if enable_cache or (enable_cache is None and cache_dir is not None):
                self.cache = ArtifactCache(
                    cache_dir,
                    max_bytes=max_cache_bytes,
                    stats=self.stats,
                    chaos=chaos,
                    tracer=self.tracer,
                )
            self.journal: Optional[CheckpointJournal] = None
            if self.cache is not None or resume:
                root = (
                    self.cache.root
                    if self.cache is not None
                    else (
                        Path(cache_dir)
                        if cache_dir is not None
                        else default_cache_dir()
                    )
                )
                self.journal = CheckpointJournal(
                    root / "checkpoints" / "journal.json",
                    stats=self.stats,
                    tracer=self.tracer,
                )
        except BaseException:
            self.executor.close()
            raise

    # -- lint gate ----------------------------------------------------------

    def lint_circuit(
        self, circuit: "Circuit", artifact: Optional[str] = None
    ) -> Optional["LintReport"]:
        """Lint ``circuit`` under this context's policy.

        Returns the report (None when the policy is ``off``), records
        its counts into :attr:`stats`, and in ``strict`` mode raises
        :class:`LintError` on any error-severity finding.
        """
        if self.lint_policy == "off":
            return None
        from repro.lint.circuit_rules import lint_circuit as run_lint

        return self._gate(run_lint(circuit, artifact))

    def lint_design(
        self, design: "TpgDesign", artifact: Optional[str] = None
    ) -> Optional["LintReport"]:
        """Lint a TPG design under this context's policy (see
        :meth:`lint_circuit`)."""
        if self.lint_policy == "off":
            return None
        from repro.lint.tpg_rules import lint_design as run_lint

        return self._gate(run_lint(design, artifact))

    def _gate(self, report: "LintReport") -> "LintReport":
        self.stats.lint_diagnostics += len(report)
        self.stats.lint_errors += report.error_count
        if self.lint_policy == "strict" and report.error_count:
            from repro.lint.core import Severity

            details = "; ".join(
                d.format() for d in report.at_least(Severity.ERROR)
            )
            raise LintError(
                f"strict lint gate: {report.error_count} error-severity "
                f"finding(s): {details}"
            )
        return report

    # -- reuse across flows -------------------------------------------------

    def reset_stats(self) -> RuntimeStats:
        """Zero the counters in place so the *same* context (and its
        warm worker pool) can serve another flow with separated stats.

        The executor, cache and journal all keep a reference to
        :attr:`stats`, so the reset happens in place rather than by
        replacement; :attr:`stats` stays the same object before and
        after.  Results are unaffected — only the accounting restarts.
        Returns :attr:`stats` for convenience.
        """
        self.stats.reset()
        self.stats.jobs = self.executor.jobs
        return self.stats

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach ``tracer`` (or detach with ``None``) on a live context.

        The executor, cache and journal consult :attr:`tracer` at use
        time, so swapping it between flows gives each flow its own
        trace without rebuilding the worker pool — the
        :mod:`repro.serve` scheduler uses this to record one trace per
        campaign job on a shared context.
        """
        self.tracer = tracer
        self.executor.tracer = tracer
        if self.cache is not None:
            self.cache.tracer = tracer
        if self.journal is not None:
            self.journal.tracer = tracer

    def flow_env(self) -> FlowEnv:
        """What a whole-flow worker's serial context takes from this one
        (see :meth:`~repro.runtime.executor.ProcessExecutor.run_flows`)."""
        return FlowEnv(
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            max_cache_bytes=(
                self.cache.max_bytes
                if self.cache is not None
                else DEFAULT_MAX_BYTES
            ),
            lint=self.lint_policy,
            sim_backend=self.sim_backend,
            chaos=self.chaos,
            trace=self.tracer is not None,
        )

    @property
    def jobs(self) -> int:
        """Worker count of the underlying executor."""
        return self.executor.jobs

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "RuntimeContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        cache = self.cache.root if self.cache is not None else None
        return (
            f"RuntimeContext(jobs={self.jobs}, cache={cache}, "
            f"lint={self.lint_policy}, retries={self.policy.retries}, "
            f"resume={self.resume})"
        )
