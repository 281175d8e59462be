"""The complete per-circuit pipeline.

``run_full_flow`` takes a circuit (object or library name) and produces
everything the paper reports for it:

1. deterministic test sequence ``T`` (simulation-based generation —
   the STRATEGATE/SEQCOM stand-in),
2. static compaction of ``T``,
3. weight-assignment selection (``Ω``),
4. reverse-order simulation,
5. the Table-6 row, and
6. optionally a synthesized, replay-verified TPG.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import RuntimeStats

from repro.circuit.library import load_circuit
from repro.circuit.netlist import Circuit
from repro.core.postprocess import ReverseOrderResult, reverse_order_simulation
from repro.core.procedure import (
    ProcedureConfig,
    ProcedureResult,
    select_weight_assignments,
)
from repro.core.report import Table6Row, build_table6_row
from repro.errors import ReproError
from repro.hw.tpg import TpgDesign, synthesize_tpg
from repro.hw.verify import verify_tpg
from repro.runtime.cache import cached_phase
from repro.runtime.keys import (
    circuit_fingerprint,
    faults_fingerprint,
    simulation_key,
    stimulus_fingerprint,
)
from repro.sim.compile import compile_circuit
from repro.sim.collapse import collapse_faults
from repro.sim.faults import Fault, FaultPruner, PruneReport, fault_name
from repro.tgen.compaction import CompactionResult, compact_sequence
from repro.tgen.random_tgen import (
    CANDIDATES,
    PATIENCE,
    GeneratedTest,
    generate_test_sequence,
)
from repro.tgen.sequence import TestSequence
from repro.trace import trace_event, traced

TGEN_MODES = ("random", "hybrid")
"""Accepted values for :attr:`FlowConfig.tgen_mode`."""


@dataclass(frozen=True)
class FlowConfig:
    """Configuration for the full pipeline.

    Attributes
    ----------
    seed:
        Seed for test generation.
    tgen_max_len:
        Length cap for the generated sequence (random phase).
    tgen_mode:
        ``"random"`` — simulation-based random walk only (fast);
        ``"hybrid"`` — random walk plus deterministic PODEM targeting
        of the leftover faults (slower, higher coverage; the closest
        stand-in for the paper's STRATEGATE sequences).
    compaction_sims:
        Fault-simulation budget for static compaction (0 disables
        compaction).
    procedure:
        Weight-selection knobs (see :class:`ProcedureConfig`); its
        ``l_g`` is the paper's ``L_G``.
    synthesize_hardware:
        Also synthesize and verify the TPG for the kept assignments.
    static_prune:
        Also run the static implication engine and report the faults
        it proves untestable, each with a machine-checkable
        certificate, in :attr:`FlowResult.pruned`.  A report only:
        every fault is still simulated, so every other output is
        identical to a run without it.
    sim_backend:
        Fault-simulation backend for every stage
        (``"auto"``/``"python"``/``"vector"``).  Backends are
        bit-identical; this only selects the implementation.
    """

    seed: int = 1
    tgen_max_len: int = 2000
    tgen_mode: str = "random"
    compaction_sims: int = 60
    procedure: ProcedureConfig = field(default_factory=ProcedureConfig)
    synthesize_hardware: bool = False
    static_prune: bool = False
    sim_backend: str = "auto"


@dataclass
class FlowResult:
    """Everything the pipeline produced for one circuit.

    Attributes
    ----------
    circuit:
        The circuit under test.
    generated:
        Raw test-generation outcome (pre-compaction).
    compaction:
        Compaction outcome (None when disabled).
    sequence:
        The final deterministic sequence ``T`` driving weight selection.
    procedure:
        The selection procedure's result (``Ω`` and friends).
    reverse_order:
        Reverse-order simulation outcome.
    table6:
        The circuit's Table-6 row.
    tpg:
        Synthesized TPG design (None unless requested).
    tpg_verified:
        Replay-verification verdict for the TPG (None unless
        synthesized).
    pruned:
        Report of the faults proved untestable, with their certificate
        kinds (None unless :attr:`FlowConfig.static_prune`).
    timings:
        Per-stage wall-clock seconds.
    runtime_stats:
        The runtime layer's counters for this run (None when no
        ``runtime`` was supplied).
    """

    circuit: Circuit
    generated: GeneratedTest
    compaction: Optional[CompactionResult]
    sequence: TestSequence
    procedure: ProcedureResult
    reverse_order: ReverseOrderResult
    table6: Table6Row
    tpg: Optional[TpgDesign] = None
    tpg_verified: Optional[bool] = None
    pruned: Optional[PruneReport] = None
    timings: Dict[str, float] = field(default_factory=dict)
    runtime_stats: Optional["RuntimeStats"] = None


def run_full_flow(
    circuit: Circuit | str,
    config: FlowConfig | None = None,
    runtime=None,
) -> FlowResult:
    """Run the complete pipeline on ``circuit``.

    ``circuit`` may be a :class:`Circuit` or a library name
    (e.g. ``"s27"``).  ``runtime`` is an optional
    :class:`~repro.runtime.context.RuntimeContext`; when given, test
    generation and compaction are each cached whole in its artifact
    cache (:func:`generation_key`, :func:`~repro.tgen.compaction.
    compaction_key`), weight selection and reverse-order simulation
    use its cache, and the finished row is journaled
    (:func:`journal_flow`).  The flow runs entirely in the calling
    process whatever ``runtime.jobs`` says; a Table-6 sweep spends the
    workers on whole flows instead
    (:func:`repro.flows.experiments.table6_rows`).  Results are
    bit-identical with or without a runtime.
    """
    cfg = config or FlowConfig()
    # Reject a bad configuration up front — before circuit loading and
    # compilation, not minutes into the flow when test generation
    # finally dispatches on the mode.
    if cfg.tgen_mode not in TGEN_MODES:
        raise ReproError(
            f"unknown tgen_mode {cfg.tgen_mode!r}; expected one of "
            f"{', '.join(TGEN_MODES)}"
        )
    if isinstance(circuit, str):
        circuit = load_circuit(circuit)
    with traced(
        runtime, "full_flow", circuit=circuit.name, tgen_mode=cfg.tgen_mode
    ):
        return _run_stages(circuit, cfg, runtime)


def generation_key(
    circuit_fp: str, faults: Sequence[Fault], cfg: FlowConfig
) -> str:
    """The artifact-cache key of the flow's test generation.

    It covers the circuit, the fault list, ``cfg``'s mode, seed and
    length cap, and the constants :func:`_generate` runs the generator
    with: :data:`CANDIDATES` and :data:`PATIENCE`, plus the default
    :class:`~repro.atpg.driver.AtpgConfig` in hybrid mode.  It never
    covers the backend.
    """
    config: Dict[str, object] = {
        "kind": "tgen",
        "mode": cfg.tgen_mode,
        "seed": cfg.seed,
        "max_len": cfg.tgen_max_len,
        "candidates": CANDIDATES,
        "patience": PATIENCE,
    }
    if cfg.tgen_mode == "hybrid":
        from repro.atpg.driver import AtpgConfig

        config["atpg"] = asdict(AtpgConfig())
    return simulation_key(
        circuit_fp, stimulus_fingerprint(()), faults_fingerprint(faults), config
    )


def _generate(
    circuit: Circuit, faults: Sequence[Fault], comp, cfg: FlowConfig
) -> GeneratedTest:
    """Test generation in ``cfg``'s mode (uncached)."""
    if cfg.tgen_mode == "hybrid":
        from repro.atpg.driver import hybrid_test_sequence

        return hybrid_test_sequence(
            circuit,
            faults,
            seed=cfg.seed,
            random_max_len=cfg.tgen_max_len,
            compiled=comp,
            sim_backend=cfg.sim_backend,
        )
    return generate_test_sequence(
        circuit, faults, seed=cfg.seed, max_len=cfg.tgen_max_len,
        compiled=comp, sim_backend=cfg.sim_backend,
    )


def _generated_payload(generated: GeneratedTest) -> dict:
    """JSON-serializable cache payload for a :class:`GeneratedTest`."""
    return {
        "sequence": list(generated.sequence.to_strings()),
        "detected": [fault_name(f) for f in generated.detected],
        "undetected": [fault_name(f) for f in generated.undetected],
    }


def _generated_from_payload(
    payload: Optional[dict], faults: Sequence[Fault], width: int
) -> Optional[GeneratedTest]:
    """Rebuild a cached :class:`GeneratedTest` against the caller's
    fault objects; None when the payload does not fit (a miss)."""
    by_name = {fault_name(f): f for f in faults}
    try:
        rows = payload["sequence"]
        if not isinstance(rows, list) or not all(
            isinstance(r, str) and len(r) == width for r in rows
        ):
            return None
        detected = tuple(by_name[name] for name in payload["detected"])
        undetected = tuple(by_name[name] for name in payload["undetected"])
        named = detected + undetected
        if len(named) != len(faults) or len(set(named)) != len(faults):
            return None
        sequence = TestSequence.from_strings(rows)
    except (KeyError, TypeError, ValueError):
        return None
    return GeneratedTest(sequence, detected, undetected)


def _run_stages(
    circuit: Circuit, cfg: FlowConfig, runtime
) -> FlowResult:
    """The flow body, stage by stage (span-per-stage when traced)."""
    if runtime is not None:
        # Static gate before any simulation: under a "warn"/"strict"
        # lint policy a structurally suspect circuit is reported (or
        # rejected) here, in milliseconds, not after the flow.
        runtime.lint_circuit(circuit)
    comp = compile_circuit(circuit)
    faults = collapse_faults(circuit)
    timings: Dict[str, float] = {}

    # The certificate report: which faults of the list the static
    # implication engine proves untestable.  It feeds no simulation, so
    # every other flow output is identical with and without it.
    pruned_report: Optional[PruneReport] = None
    if cfg.static_prune:
        t0 = time.perf_counter()
        with traced(runtime, "static_analysis_stage"):
            pruned_report = FaultPruner(circuit, runtime=runtime).report(faults)
        timings["static_analysis"] = time.perf_counter() - t0
        trace_event(
            runtime,
            "stage",
            name="static_analysis",
            n_faults=pruned_report.n_faults,
            pruned=pruned_report.n_pruned,
        )

    t0 = time.perf_counter()
    with traced(runtime, "test_generation", mode=cfg.tgen_mode):
        generated = cached_phase(
            runtime,
            "tgen",
            lambda: generation_key(circuit_fingerprint(circuit), faults, cfg),
            lambda payload: _generated_from_payload(
                payload, faults, len(circuit.inputs)
            ),
            lambda: _generate(circuit, faults, comp, cfg),
            _generated_payload,
        )
    timings["test_generation"] = time.perf_counter() - t0
    trace_event(
        runtime, "stage", name="test_generation",
        length=len(generated.sequence), detected=len(generated.detected),
    )
    if not generated.detected:
        raise ReproError(
            f"test generation detected no faults on {circuit.name}; "
            "cannot drive weight selection"
        )

    compaction: Optional[CompactionResult] = None
    sequence = generated.sequence
    if cfg.compaction_sims > 0:
        t0 = time.perf_counter()
        with traced(runtime, "compaction", budget=cfg.compaction_sims):
            compaction = compact_sequence(
                circuit,
                sequence,
                generated.detected,
                max_simulations=cfg.compaction_sims,
                compiled=comp,
                runtime=runtime,
                sim_backend=cfg.sim_backend,
            )
        sequence = compaction.sequence
        timings["compaction"] = time.perf_counter() - t0
        trace_event(
            runtime, "stage", name="compaction", length=len(sequence)
        )

    t0 = time.perf_counter()
    with traced(runtime, "procedure", l_g=cfg.procedure.l_g):
        procedure = select_weight_assignments(
            circuit, sequence, faults, cfg.procedure, compiled=comp,
            runtime=runtime, sim_backend=cfg.sim_backend,
        )
    timings["procedure"] = time.perf_counter() - t0
    trace_event(
        runtime, "stage", name="procedure", omega=len(procedure.omega)
    )

    t0 = time.perf_counter()
    with traced(runtime, "reverse_order"):
        reverse_order = reverse_order_simulation(
            circuit, procedure, comp, runtime=runtime,
            sim_backend=cfg.sim_backend,
        )
    timings["reverse_order"] = time.perf_counter() - t0
    trace_event(
        runtime, "stage", name="reverse_order", kept=len(reverse_order.kept)
    )

    table6 = build_table6_row(circuit.name, sequence, procedure, reverse_order)

    tpg: Optional[TpgDesign] = None
    verified: Optional[bool] = None
    if cfg.synthesize_hardware and reverse_order.kept:
        t0 = time.perf_counter()
        with traced(runtime, "hardware"):
            with traced(runtime, "tpg_synthesize"):
                tpg = synthesize_tpg(
                    list(reverse_order.kept), procedure.l_g, circuit.inputs
                )
            with traced(runtime, "tpg_lint"):
                if runtime is not None:
                    runtime.lint_design(tpg)
            with traced(runtime, "tpg_verify"):
                verified = verify_tpg(tpg).ok
        timings["hardware"] = time.perf_counter() - t0
        trace_event(
            runtime, "stage", name="hardware", verified=bool(verified)
        )

    if runtime is not None:
        for stage, seconds in timings.items():
            runtime.stats.timers[stage] = (
                runtime.stats.timers.get(stage, 0.0) + seconds
            )

    flow = FlowResult(
        circuit=circuit,
        generated=generated,
        compaction=compaction,
        sequence=sequence,
        procedure=procedure,
        reverse_order=reverse_order,
        table6=table6,
        tpg=tpg,
        tpg_verified=verified,
        pruned=pruned_report,
        timings=timings,
        runtime_stats=runtime.stats if runtime is not None else None,
    )
    journal_flow(runtime, cfg, flow)
    return flow


def journal_flow(runtime, cfg: FlowConfig, flow: FlowResult) -> None:
    """Checkpoint ``flow``'s Table-6 row in ``runtime``'s journal.

    The record is atomic, so an interrupted multi-circuit sweep resumes
    past the circuit with ``--resume`` (see
    :mod:`repro.flows.experiments`).  A no-op without a journal.
    """
    journal = getattr(runtime, "journal", None)
    if journal is None:
        return
    from repro.resilience.journal import flow_journal_key

    journal.record(
        flow_journal_key(flow.circuit.name, asdict(cfg)),
        {
            "kind": "flow",
            "table6": asdict(flow.table6),
            "timings": dict(flow.timings),
        },
    )
