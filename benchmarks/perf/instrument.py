"""Which public functions the traced pass wraps, and the per-layer metrics.

The per-layer metrics come from two sources:

* what the program reports about itself -- per-stage seconds in
  ``FlowResult.timings``, compaction simulations in
  ``CompactionResult.n_simulations``, and the counters of
  ``RuntimeStats`` (simulations run, cache hits, pool tasks, worker
  busy time); a served job carries the same on its job record;
* what it does not report, timed from outside by :func:`install`:
  ``LogicSimulator.run``, the TPG synthesis and verification calls, the
  fault-simulator entry points (their time and the work they were
  offered), ``ArtifactCache`` reads and writes, ``RuntimeContext``
  bookkeeping, the executors' fan-outs and, in a server process, the
  ``execute_job`` the scheduler calls and ``JobQueue.claim_next`` /
  ``finish``.

:func:`layer_metrics` combines both into the per-layer metrics of
``BENCHMARK.json``, each per operation (one flow, one sweep or one
served job).  ``workloads.to_reference`` then scales their times to
reference seconds and adds ``host.speed``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from layers import Recorder

#: Flow stages the program times itself (``FlowResult.timings`` keys,
#: ``phase:<stage>`` on a served job's record).
STAGES = ("test_generation", "compaction", "procedure", "reverse_order",
          "hardware")

#: Root span the in-process workloads open around one operation.
OP_SPAN = "op"
EXECUTE_SPAN = "serve.execute_job"

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "hw.verify_s": ("s", "lower"),
    "hw.synthesize_s": ("s", "lower"),
    "sim.logic_s": ("s", "lower"),
    "sim.logic_cycles": ("cycles", "lower"),
    "sim.logic_cycles_per_s": ("cycles/s", "higher"),
    "sim.run_calls": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.fault_cycles": ("cycles", "lower"),
    "sim.fault_cycles_per_s": ("cycles/s", "higher"),
    "sim.screen_calls": ("count", "lower"),
    "sim.screen_s": ("s", "lower"),
    "sim.batch_calls": ("count", "lower"),
    "sim.batch_s": ("s", "lower"),
    "sim.incr_calls": ("count", "lower"),
    "sim.incr_s": ("s", "lower"),
    "sim.sims_built": ("count", "lower"),
    "tgen.generate_s": ("s", "lower"),
    "tgen.compact_s": ("s", "lower"),
    "tgen.compact_sims": ("count", "lower"),
    "core.procedure_s": ("s", "lower"),
    "core.reverse_order_s": ("s", "lower"),
    "core.screens": ("count", "lower"),
    "core.full_sims": ("count", "lower"),
    "core.screen_pass_ratio": ("ratio", "higher"),
    "core.self_s": ("s", "lower"),
    "runtime.cache_gets": ("count", "lower"),
    "runtime.cache_get_s": ("s", "lower"),
    "runtime.cache_hit_ratio": ("ratio", "higher"),
    "runtime.cache_puts": ("count", "lower"),
    "runtime.cache_put_s": ("s", "lower"),
    "runtime.ctx_s": ("s", "lower"),
    "runtime.fanouts": ("count", "lower"),
    "runtime.fanout_s": ("s", "lower"),
    "runtime.tasks": ("count", "lower"),
    "runtime.worker_util": ("ratio", "higher"),
    "runtime.task_retries": ("count", "lower"),
    "flows.unattributed_s": ("s", "lower"),
    "serve.latency_s_p50": ("s", "lower"),
    "serve.submit_s_p50": ("s", "lower"),
    "serve.queue_wait_s_p50": ("s", "lower"),
    "serve.run_s_p50": ("s", "lower"),
    "serve.execute_s_p50": ("s", "lower"),
    "serve.overhead_s_p50": ("s", "lower"),
    "serve.idle_claims": ("count", "lower"),
    "serve.retries_429": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "host.speed": ("ratio", "higher"),
}


# -- what the program reports -------------------------------------------------


def flow_facts(flows: Sequence[Any]) -> Dict[str, float]:
    """Stage seconds, compaction simulations and runtime counters of
    the ``FlowResult``s of one operation, summed."""
    facts: Dict[str, float] = defaultdict(float)
    contexts = {}
    for flow in flows:
        for stage, seconds in flow.timings.items():
            facts[f"stage.{stage}"] += seconds
        if flow.compaction is not None:
            facts["compaction_sims"] += flow.compaction.n_simulations
        if flow.runtime_stats is not None:
            # The flows of one sweep share one context's stats.
            contexts[id(flow.runtime_stats)] = flow.runtime_stats
    for stats in contexts.values():
        for name, value in stats.snapshot().items():
            facts[name] += value
        facts["capacity_s"] += stats.parallel_wall_s * max(stats.jobs, 1)
    return facts


def job_facts(records: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """The same facts from served jobs' record ``stats``: the runtime
    counters a job record carries and ``phase:<stage>`` seconds."""
    facts: Dict[str, float] = defaultdict(float)
    for stats in records:
        for name, value in stats.items():
            if not name.startswith("phase:"):
                facts[name] += value
            elif name[len("phase:"):] in STAGES:
                facts[f"stage.{name[len('phase:'):]}"] += value
    return facts


def add_facts(total: Dict[str, float], more: Mapping[str, float]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0.0) + value


# -- what is timed from outside -----------------------------------------------


def _size(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name, ())


def _fault_cycles(batch: bool):
    """Faults x stimulus cycles a fault-simulator call was offered."""

    def count(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        if batch:
            stimuli = _arg(args, kwargs, 1, "stimuli")
        else:
            stimuli = [_arg(args, kwargs, 1, "stimulus")]
        faults = _size(_arg(args, kwargs, 2, "faults"))
        return {"cycles": sum(_size(s) for s in stimuli) * faults}

    return count


def _logic_cycles(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"cycles": _size(_arg(args, kwargs, 1, "stimulus"))}


def install(rec: Recorder, serve: bool = False) -> None:
    """Wrap every value the program does not report on ``rec``."""
    import repro.flows.full_flow as full_flow
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.context import RuntimeContext
    from repro.runtime.executor import ProcessExecutor, SerialExecutor
    from repro.sim.faultsim import FaultSimulator, IncrementalFaultSimulator
    from repro.sim.logicsim import LogicSimulator

    # The stages whose split or self time the flow's timings lack.
    for phase in (
        "select_weight_assignments", "reverse_order_simulation",
        "synthesize_tpg", "verify_tpg",
    ):
        rec.wrap(full_flow, phase, f"flow.{phase}")

    for method, batch in (
        ("run", False), ("detects_any", False),
        ("detects_any_batch", True), ("run_batch", True),
    ):
        rec.wrap(
            FaultSimulator, method, f"FaultSimulator.{method}", "sim.fault",
            _fault_cycles(batch),
        )
    for method in ("step", "peek", "reset_state", "regroup", "remaining_faults"):
        rec.wrap(
            IncrementalFaultSimulator, method,
            f"IncrementalFaultSimulator.{method}", "sim.incr",
        )
    rec.wrap(
        LogicSimulator, "run", "LogicSimulator.run", "sim.logic",
        _logic_cycles,
    )
    for cls in (FaultSimulator, IncrementalFaultSimulator, LogicSimulator):
        rec.wrap(cls, "__init__", f"{cls.__name__}.__init__", "sim.build")

    rec.wrap(ArtifactCache, "get", "ArtifactCache.get", "runtime.cache_get")
    rec.wrap(ArtifactCache, "put", "ArtifactCache.put", "runtime.cache_put")
    for method in (
        "__init__", "reset_stats", "attach_tracer", "lint_circuit",
        "lint_design", "close",
    ):
        rec.wrap(
            RuntimeContext, method, f"RuntimeContext.{method}", "runtime.ctx"
        )
    for cls in (SerialExecutor, ProcessExecutor):
        for method in ("run_fault_groups", "run_group_tasks", "screen_batch"):
            rec.wrap(
                cls, method, f"{cls.__name__}.{method}", "runtime.fanout"
            )

    if serve:
        import repro.serve.scheduler as scheduler
        from repro.serve.queue import JobQueue

        rec.wrap(
            scheduler, "execute_job", EXECUTE_SPAN,
            log=lambda args, kwargs, result: args[0].key(),
        )
        rec.wrap(
            JobQueue, "claim_next", "serve.claim_next",
            count=lambda args, kwargs, result: {"idle": float(result is None)},
            log=lambda args, kwargs, result: (
                None if result is None else result.key
            ),
        )
        rec.wrap(
            JobQueue, "finish", "serve.finish",
            log=lambda args, kwargs, result: _arg(args, kwargs, 1, "key"),
        )


# -- read-out -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    dump: Dict[str, Any],
    facts: Mapping[str, float],
    n_ops: int,
    root: str = OP_SPAN,
    serve: Optional[Dict[str, float]] = None,
    overhead_frac: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics, per operation, from a recorder dump and the
    program's own ``facts`` (:func:`flow_facts`, :func:`job_facts`).

    ``root`` names the span around one operation; what it spends outside
    every stage the flow times is the unattributed time.  ``serve``
    carries the serve-layer values :func:`serve_metrics` computed.
    """
    spans, groups = dump["spans"], dump["groups"]
    n = max(n_ops, 1)

    def span(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def group(name: str, key: str = "total_s") -> float:
        return groups.get(name, {}).get(key, 0.0)

    def cycles(name: str) -> float:
        return groups.get(name, {}).get("counters", {}).get("cycles", 0.0)

    def fact(name: str) -> float:
        return facts.get(name, 0.0)

    staged = sum(fact(f"stage.{stage}") for stage in STAGES)
    cache_hits = fact("full_sim_hits") + fact("screen_hits")
    out = {
        "hw.verify_s": span("flow.verify_tpg") / n,
        "hw.synthesize_s": span("flow.synthesize_tpg") / n,
        "sim.logic_s": group("sim.logic") / n,
        "sim.logic_cycles": cycles("sim.logic") / n,
        "sim.logic_cycles_per_s": _ratio(
            cycles("sim.logic"), group("sim.logic")
        ),
        "sim.run_calls": span("FaultSimulator.run", "calls") / n,
        "sim.run_s": span("FaultSimulator.run") / n,
        "sim.fault_cycles": cycles("sim.fault") / n,
        "sim.fault_cycles_per_s": _ratio(
            cycles("sim.fault"), group("sim.fault")
        ),
        "sim.screen_calls": span("FaultSimulator.detects_any", "calls") / n,
        "sim.screen_s": span("FaultSimulator.detects_any") / n,
        "sim.batch_calls": (
            span("FaultSimulator.detects_any_batch", "calls")
            + span("FaultSimulator.run_batch", "calls")
        ) / n,
        "sim.batch_s": (
            span("FaultSimulator.detects_any_batch")
            + span("FaultSimulator.run_batch")
        ) / n,
        "sim.incr_calls": group("sim.incr", "calls") / n,
        "sim.incr_s": group("sim.incr") / n,
        "sim.sims_built": group("sim.build", "calls") / n,
        "tgen.generate_s": fact("stage.test_generation") / n,
        "tgen.compact_s": fact("stage.compaction") / n,
        "tgen.compact_sims": fact("compaction_sims") / n,
        "core.procedure_s": fact("stage.procedure") / n,
        "core.reverse_order_s": fact("stage.reverse_order") / n,
        "core.screens": fact("screen_simulations") / n,
        "core.full_sims": fact("full_simulations") / n,
        "core.screen_pass_ratio": _ratio(
            fact("full_simulations"), fact("screen_simulations")
        ),
        "core.self_s": (
            span("flow.select_weight_assignments", "self_s")
            + span("flow.reverse_order_simulation", "self_s")
        ) / n,
        "runtime.cache_gets": group("runtime.cache_get", "calls") / n,
        "runtime.cache_get_s": group("runtime.cache_get") / n,
        "runtime.cache_hit_ratio": _ratio(
            cache_hits, group("runtime.cache_get", "calls")
        ),
        "runtime.cache_puts": group("runtime.cache_put", "calls") / n,
        "runtime.cache_put_s": group("runtime.cache_put") / n,
        "runtime.ctx_s": group("runtime.ctx") / n,
        "runtime.fanouts": group("runtime.fanout", "calls") / n,
        "runtime.fanout_s": group("runtime.fanout") / n,
        "runtime.tasks": fact("tasks_dispatched") / n,
        "runtime.worker_util": _ratio(
            fact("worker_busy_s"), fact("capacity_s")
        ),
        "runtime.task_retries": fact("task_retries") / n,
        "flows.unattributed_s": (span(root) - staged) / n,
        "trace.overhead_frac": overhead_frac,
    }
    serve = serve or {}
    for name in PER_LAYER:
        if name.startswith("serve."):
            out[name] = serve.get(name, 0.0)
    return out


def serve_metrics(
    servers: Sequence[Tuple[Dict[str, Any], Sequence[Dict[str, Any]]]]
) -> Dict[str, float]:
    """Serve-layer metrics: client timestamps joined with server events.

    ``servers`` holds one ``(dump, jobs)`` pair per server life: every
    server is sent the same jobs, so a key is joined only within its
    own server.  Each entry of ``jobs`` carries the client's ``key``,
    ``submit0`` / ``submit1`` (around ``POST /jobs``), ``done`` (the
    progress feed closed) and ``retries_429``.  Server events give the
    claim, the ``execute_job`` call and the queue ``finish`` per key;
    all timestamps are on the host's monotonic clock.
    """
    rows: Dict[str, List[float]] = {
        "serve.latency_s_p50": [],
        "serve.submit_s_p50": [],
        "serve.queue_wait_s_p50": [],
        "serve.run_s_p50": [],
        "serve.execute_s_p50": [],
        "serve.overhead_s_p50": [],
    }
    idle = retries = n = 0.0
    for dump, jobs in servers:
        claim: Dict[str, float] = {}
        execute: Dict[str, List[float]] = {}
        finish: Dict[str, float] = {}
        for name, key, t0, t1 in dump["events"]:
            if name == "serve.claim_next":
                claim[key] = t1
            elif name == EXECUTE_SPAN:
                execute[key] = [t0, t1]
            elif name == "serve.finish":
                finish[key] = t1
        for job in jobs:
            key = job["key"]
            if key not in claim or key not in execute or key not in finish:
                continue
            exec_s = execute[key][1] - execute[key][0]
            rows["serve.latency_s_p50"].append(job["done"] - job["submit0"])
            rows["serve.submit_s_p50"].append(
                job["submit1"] - job["submit0"]
            )
            rows["serve.queue_wait_s_p50"].append(
                claim[key] - job["submit1"]
            )
            rows["serve.run_s_p50"].append(finish[key] - claim[key])
            rows["serve.execute_s_p50"].append(exec_s)
            rows["serve.overhead_s_p50"].append(
                job["done"] - job["submit0"] - exec_s
            )
        claims = dump["groups"].get("serve.claim_next", {})
        idle += claims.get("counters", {}).get("idle", 0.0)
        retries += sum(job["retries_429"] for job in jobs)
        n += len(jobs)
    out = {
        name: statistics.median(values) if values else 0.0
        for name, values in rows.items()
    }
    out["serve.idle_claims"] = idle / max(n, 1)
    out["serve.retries_429"] = retries / max(n, 1)
    return out
