"""repro.runtime — parallel execution and artifact caching.

The runtime layer makes the reproduction fast without changing a single
result:

* :mod:`repro.runtime.executor` — a common executor interface with a
  serial and a process-pool implementation.  A single flow always runs
  in the calling process; the pool runs the circuits of a Table-6
  sweep as concurrent whole flows, with results returned in task order
  (bit-identical to the serial sweep).
* :mod:`repro.runtime.cache` + :mod:`repro.runtime.keys` — a
  content-addressed artifact cache keyed on (canonical netlist, fault
  set, stimulus, config), with versioned keys, atomic writes and an
  LRU size cap.  Corrupt or stale entries are discarded, never trusted.
* :mod:`repro.runtime.metrics` — :class:`RuntimeStats` counters/timers
  (simulations run vs. served from cache, worker utilization, recovery
  events), printed by ``repro flow --stats``.
* :mod:`repro.resilience` (re-exported here) — fault tolerance: retry
  policies for crashed/hung workers, graceful degradation to serial
  execution, atomic checkpoint journals for ``--resume``, and the
  deterministic chaos-injection harness that tests all of it.
* :mod:`repro.trace` (``Tracer`` re-exported here) — hierarchical span
  tracing and the structured event log; pass ``trace=True`` to the
  context and every phase of a flow is attributed wall/CPU time and
  counter deltas.

Entry point: build a :class:`RuntimeContext` and pass it down —
``run_full_flow(circuit, runtime=rt)``, ``FaultSimulator(circuit,
runtime=rt)``, ``select_weight_assignments(..., runtime=rt)``.
"""

from repro.resilience import (
    ChaosSpec,
    CheckpointJournal,
    RetryPolicy,
    flow_journal_key,
    handle_termination,
)
from repro.runtime.cache import (
    DEFAULT_MAX_BYTES,
    ArtifactCache,
    CacheIntegrityWarning,
    default_cache_dir,
)
from repro.runtime.context import RuntimeContext
from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runtime.keys import (
    CACHE_FORMAT,
    circuit_fingerprint,
    config_fingerprint,
    faults_fingerprint,
    fingerprint,
    simulation_key,
    stimulus_fingerprint,
)
from repro.runtime.metrics import RuntimeStats
from repro.trace.span import Tracer

__all__ = [
    "Tracer",
    "ArtifactCache",
    "CACHE_FORMAT",
    "CacheIntegrityWarning",
    "ChaosSpec",
    "CheckpointJournal",
    "DEFAULT_MAX_BYTES",
    "ProcessExecutor",
    "RetryPolicy",
    "RuntimeContext",
    "RuntimeStats",
    "SerialExecutor",
    "flow_journal_key",
    "handle_termination",
    "circuit_fingerprint",
    "config_fingerprint",
    "default_cache_dir",
    "faults_fingerprint",
    "fingerprint",
    "make_executor",
    "simulation_key",
    "stimulus_fingerprint",
]
