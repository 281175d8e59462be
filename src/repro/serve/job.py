"""Campaign jobs: specification, identity and lifecycle.

A :class:`JobSpec` describes one BIST-campaign unit of work — "run the
full Section-4 flow on this circuit with these knobs".  Its identity
(:meth:`JobSpec.key`) is content-addressed over exactly the fields that
influence the *result* (circuit, seed, sequence budgets, ``L_G``,
hardware synthesis), reusing the fingerprint machinery of
:mod:`repro.runtime.keys`; priority and client are deliberately
excluded so two clients asking for the same computation share one job
and one result.

A :class:`Job` is a spec the server has accepted: it carries the queue
sequence number (the FIFO tiebreak inside a priority tier), the
lifecycle state and — once terminal — an error string for failures.
States move strictly forward::

    QUEUED ──> RUNNING ──> DONE | FAILED
       │
       └─────> CANCELLED | SHED

``SHED`` is a cancellation performed *by the server*: admission control
evicted the job to make room for higher-priority work (the client is
told so and may resubmit).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.errors import ServeError
from repro.flows.full_flow import TGEN_MODES, FlowConfig
from repro.runtime.keys import config_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimize.search import OptimizeConfig

MIN_PRIORITY = 0
MAX_PRIORITY = 9
DEFAULT_PRIORITY = 4
"""Priorities run 0 (batch) to 9 (urgent); higher dispatches first."""

TASKS = ("flow", "optimize")
"""Job types the server runs: the greedy Section-4 flow, or the
multi-objective weight search of :mod:`repro.optimize`."""

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
SHED = "shed"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, SHED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, SHED})

_KEY_BYTES = 16

_FIELD_TYPES = {"str": str, "int": int, "bool": bool}
"""The type each :class:`JobSpec` field annotation names."""

_RETIRED_FIELDS = frozenset({"jobs", "task_timeout", "retries"})
"""Fields of the retired per-job execution budget.  Journals and
clients from before its removal still send them, so
:meth:`JobSpec.from_dict` drops them and every acknowledged job
restores."""


@dataclass(frozen=True)
class JobSpec:
    """One requested flow run.

    Attributes
    ----------
    circuit:
        Library circuit name (the server only runs embedded circuits —
        it never reads paths a remote client names).
    task:
        ``"flow"`` (the greedy Section-4 flow, the default) or
        ``"optimize"`` (the multi-objective weight search seeded by
        that flow).
    seed / tgen_mode / tgen_max_len / compaction_sims / l_g /
    synthesize_hardware:
        The :class:`~repro.flows.full_flow.FlowConfig` knobs.
    population / generations:
        The search budget; only meaningful (and only part of the job
        key) when ``task == "optimize"``.
    static_prune:
        Also report the faults the static implication engine proves
        untestable: a flow's result gains a ``proved_untestable``
        section, and nothing else in it changes.  A flow's key changes
        only when the flag is set (old keys stay valid); an optimize
        job's never does, since a search does not read the flag.
    sim_backend:
        Fault-simulation backend (``"auto"``/``"python"``/``"vector"``).
        Backends are bit-identical, so — like priority and client — it
        is *excluded* from :meth:`result_fields` and the job key: two
        clients demanding the same computation share one result no
        matter which engine computes it.
    priority:
        0–9, higher runs first; FIFO within a priority.
    client:
        Submitting client's identity (rate limiting and fair-share are
        per client).

    A job is one flow or one search, which runs in one process.  Every
    field must have exactly its annotated type (an ``int`` field takes
    no ``bool``), or the spec is refused with :class:`ServeError`.
    """

    circuit: str
    task: str = "flow"
    seed: int = 1
    tgen_mode: str = "random"
    tgen_max_len: int = 2000
    compaction_sims: int = 60
    l_g: int = 512
    synthesize_hardware: bool = False
    static_prune: bool = False
    sim_backend: str = "auto"
    population: int = 8
    generations: int = 2
    priority: int = DEFAULT_PRIORITY
    client: str = "anonymous"

    def __post_init__(self) -> None:
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            expected = _FIELD_TYPES[str(spec_field.type)]
            if type(value) is not expected:
                raise ServeError(
                    f"job spec field {spec_field.name} must be "
                    f"{expected.__name__}, got {value!r}"
                )
        if not self.circuit:
            raise ServeError("job spec needs a circuit name")
        if self.task not in TASKS:
            raise ServeError(
                f"unknown task {self.task!r}; expected one of "
                f"{', '.join(TASKS)}"
            )
        if self.population < 2:
            raise ServeError("population must be >= 2")
        if self.generations < 0:
            raise ServeError("generations must be >= 0")
        if self.tgen_mode not in TGEN_MODES:
            raise ServeError(
                f"unknown tgen_mode {self.tgen_mode!r}; expected one of "
                f"{', '.join(TGEN_MODES)}"
            )
        from repro.sim.backend import BACKENDS

        if self.sim_backend not in BACKENDS:
            raise ServeError(
                f"unknown sim_backend {self.sim_backend!r}; expected one "
                f"of {', '.join(BACKENDS)}"
            )
        if not MIN_PRIORITY <= self.priority <= MAX_PRIORITY:
            raise ServeError(
                f"priority {self.priority} out of range "
                f"[{MIN_PRIORITY}, {MAX_PRIORITY}]"
            )
        for name in ("tgen_max_len", "l_g"):
            if getattr(self, name) <= 0:
                raise ServeError(f"{name} must be positive")
        if self.compaction_sims < 0:
            raise ServeError("compaction_sims must be >= 0")
        if not self.client:
            raise ServeError("client must be non-empty")

    # -- identity -----------------------------------------------------------

    def result_fields(self) -> Dict[str, object]:
        """The fields that determine the *result* (the key basis).

        ``"flow"`` jobs keep the exact pre-optimize field set, so every
        flow key minted by an earlier server life still matches;
        ``"optimize"`` jobs add the task tag and the search budget.
        """
        fields: Dict[str, object] = {
            "circuit": self.circuit,
            "seed": self.seed,
            "tgen_mode": self.tgen_mode,
            "tgen_max_len": self.tgen_max_len,
            "compaction_sims": self.compaction_sims,
            "l_g": self.l_g,
            "synthesize_hardware": self.synthesize_hardware,
        }
        if self.task != "flow":
            fields["task"] = self.task
            fields["population"] = self.population
            fields["generations"] = self.generations
        if self.static_prune and self.task == "flow":
            # Pruned flows report an extra section, so they key
            # separately; a search never sees the flag, so it keys with
            # the unflagged one.  Default jobs keep their historical keys.
            fields["static_prune"] = True
        return fields

    def key(self) -> str:
        """Content-addressed job identity.

        Two specs demanding the same computation — whatever their
        priority or client — share one key, one queue slot and one
        result.
        """
        return config_fingerprint(self.result_fields())[: 2 * _KEY_BYTES]

    def flow_config(self) -> FlowConfig:
        """The :class:`FlowConfig` this spec demands."""
        from repro.core.procedure import ProcedureConfig

        return FlowConfig(
            seed=self.seed,
            tgen_max_len=self.tgen_max_len,
            tgen_mode=self.tgen_mode,
            compaction_sims=self.compaction_sims,
            procedure=ProcedureConfig(l_g=self.l_g),
            synthesize_hardware=self.synthesize_hardware,
            static_prune=self.static_prune,
            sim_backend=self.sim_backend,
        )

    def optimize_config(self) -> "OptimizeConfig":
        """The :class:`~repro.optimize.OptimizeConfig` this spec demands
        (``task == "optimize"`` jobs only)."""
        from repro.optimize import OptimizeConfig

        return OptimizeConfig(
            seed=self.seed,
            population=self.population,
            generations=self.generations,
            l_g=self.l_g,
            tgen_mode=self.tgen_mode,
            tgen_max_len=self.tgen_max_len,
            compaction_sims=self.compaction_sims,
            sim_backend=self.sim_backend,
        )

    # -- wire format --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the HTTP submit body)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSpec":
        """Validate and rebuild a spec from :meth:`to_dict` output.

        Raises :class:`ServeError` on anything malformed — unknown
        fields, wrong types, out-of-range values — so the HTTP layer
        can turn every bad submission into a clean 400.  The retired
        execution-budget fields are dropped, not refused.
        """
        if not isinstance(payload, Mapping):
            raise ServeError(f"job spec is not an object: {payload!r}")
        values = {
            k: v for k, v in payload.items() if k not in _RETIRED_FIELDS
        }
        unknown = sorted(set(values) - set(cls.__dataclass_fields__))
        if unknown:
            raise ServeError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**values)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ServeError(f"malformed job spec: {exc}") from exc


@dataclass
class Job:
    """A spec the server has accepted, plus its lifecycle state.

    ``owner``/``lease_token`` identify the worker currently leasing a
    running job (None for queued/terminal jobs or the in-process
    scheduler's unleased claims); ``version`` increments on *every*
    state transition.
    """

    spec: JobSpec
    seq: int
    state: str = QUEUED
    error: Optional[str] = None
    attempts: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    owner: Optional[str] = None
    version: int = 0
    lease_token: Optional[int] = None

    @property
    def key(self) -> str:
        return self.spec.key()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def sort_key(self) -> Tuple[int, int]:
        """Dispatch order: highest priority first, then FIFO."""
        return (-self.spec.priority, self.seq)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (journal payload and HTTP body)."""
        return {
            "kind": "job",
            "key": self.key,
            "spec": self.spec.to_dict(),
            "seq": self.seq,
            "state": self.state,
            "error": self.error,
            "attempts": self.attempts,
            "stats": dict(self.stats),
            "owner": self.owner,
            "version": self.version,
            "lease_token": self.lease_token,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Job":
        """Validate and rebuild a job from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping) or payload.get("kind") != "job":
            raise ServeError(f"not a job record: {payload!r}")
        spec_raw = payload.get("spec")
        if not isinstance(spec_raw, Mapping):
            raise ServeError(f"job record has no spec: {payload!r}")
        spec = JobSpec.from_dict(spec_raw)
        state = payload.get("state")
        if state not in STATES:
            raise ServeError(f"unknown job state {state!r}")
        try:
            seq = int(payload["seq"])  # type: ignore[arg-type,call-overload]
            attempts = int(payload.get("attempts", 0))  # type: ignore[arg-type]
            version = int(payload.get("version", 0))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed job record: {payload!r}") from exc
        error = payload.get("error")
        owner = payload.get("owner")
        token_raw = payload.get("lease_token")
        lease_token = (
            int(token_raw) if isinstance(token_raw, (int, float)) else None
        )
        stats_raw = payload.get("stats", {})
        stats: Dict[str, float] = {}
        if isinstance(stats_raw, Mapping):
            for name, value in stats_raw.items():
                if isinstance(value, (int, float)):
                    stats[str(name)] = float(value)
        return cls(
            spec=spec,
            seq=seq,
            state=str(state),
            error=str(error) if error is not None else None,
            attempts=attempts,
            stats=stats,
            owner=str(owner) if owner is not None else None,
            version=version,
            lease_token=lease_token,
        )
