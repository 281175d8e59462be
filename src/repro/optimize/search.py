"""The seeded (μ+λ) NSGA-II search loop.

Structure of one run:

1. The greedy baseline flow (Section 4's ``Ω`` after reverse-order
   simulation) supplies the weight alphabet, the window grid, the
   target faults and the **baseline genome** — which seeds generation
   0, so the search starts from the paper's solution and can only
   improve on it.
2. Each generation ``g`` draws every random decision from
   ``DeterministicRng(seed).fork(g)``: selection, crossover and
   mutation for generation ``g`` depend only on the population entering
   it — which makes resumption history-independent.
3. All fitness evaluation goes through :class:`PhaseEvaluator`
   (deduplicated, cached, executor-fanned-out); an **archive** of every
   genome ever evaluated accumulates, and the final Pareto front is
   the non-dominated set of the archive — so the baseline (or
   something dominating it) is always on the front.
4. After every generation the population and archive are checkpointed
   to the resilience journal; an interrupted run rerun with
   ``--resume`` continues at the next generation and produces a
   byte-identical final front.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.library import load_circuit
from repro.circuit.netlist import Circuit
from repro.core.assignment import WeightAssignment
from repro.core.procedure import ProcedureConfig
from repro.core.weight import Weight
from repro.errors import OptimizeError
from repro.flows.full_flow import FlowConfig, FlowResult, run_full_flow
from repro.optimize.alphabet import build_alphabet, derive_windows
from repro.optimize.evaluate import PhaseEvaluator
from repro.optimize.genome import (
    Genome,
    crossover,
    genome_assignments,
    genome_from_jsonable,
    genome_to_jsonable,
    mutate,
    random_genome,
)
from repro.optimize.nsga import (
    crowding_distance,
    fast_non_dominated_sort,
)
from repro.trace import trace_event, traced
from repro.util.rng import DeterministicRng

Objectives = Tuple[float, ...]


@dataclass(frozen=True)
class OptimizeConfig:
    """Search knobs.

    Attributes
    ----------
    seed:
        Root seed; also seeds the baseline flow when none is supplied.
    population:
        μ — survivors per generation (λ offspring are bred each round).
    generations:
        Offspring rounds after the seeded generation 0.
    crossover_rate / mutation_rate:
        Variation probabilities (crossover per child; mutation per
        gene/phase/schedule move).
    max_phases:
        Schedule length cap; 0 derives it from the baseline (its phase
        count, at least 2).
    max_alphabet:
        Weight-alphabet size cap (baseline weights are always kept).
    tgen_mode / tgen_max_len / compaction_sims / l_g:
        Baseline-flow knobs, used only when ``run_optimize`` computes
        the flow itself.
    sim_backend:
        Fault-simulation backend for phase evaluation and the baseline
        flow (``"auto"``/``"python"``/``"vector"``).  Backends are
        bit-identical, so scores and fronts never depend on it.
    """

    seed: int = 1
    population: int = 16
    generations: int = 8
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    max_phases: int = 0
    max_alphabet: int = 12
    tgen_mode: str = "random"
    tgen_max_len: int = 2000
    compaction_sims: int = 60
    l_g: int = 512
    sim_backend: str = "auto"

    def __post_init__(self) -> None:
        from repro.sim.backend import validate_backend

        validate_backend(self.sim_backend)
        if self.population < 2:
            raise OptimizeError(
                f"population must be at least 2, got {self.population}"
            )
        if self.generations < 0:
            raise OptimizeError(
                f"generations must be non-negative, got {self.generations}"
            )
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise OptimizeError(f"{name} must be in [0, 1], got {rate}")
        if self.max_phases < 0:
            raise OptimizeError(
                f"max_phases must be non-negative, got {self.max_phases}"
            )


@dataclass(frozen=True)
class FrontPoint:
    """One point of the Pareto front (or the baseline).

    ``assignments``/``windows`` are the genome decoded against the
    alphabet and window grid: per phase, the weight strings applied and
    the cycles they run for.
    """

    genome: Genome
    assignments: Tuple[Tuple[str, ...], ...]
    windows: Tuple[int, ...]
    detected: int
    coverage: float
    area: float
    length: int

    @property
    def objectives(self) -> Objectives:
        """The minimization vector NSGA-II ranked this point by."""
        return (-float(self.detected), self.area, float(self.length))


@dataclass
class OptimizeResult:
    """Everything one search produced."""

    circuit_name: str
    config: OptimizeConfig
    alphabet: Tuple[Weight, ...]
    windows: Tuple[int, ...]
    baseline: FrontPoint
    front: List[FrontPoint]
    generations_run: int
    evaluations: int
    n_target_faults: int
    journal_key: str
    resumed_from: Optional[int] = None
    flow: Optional[FlowResult] = field(default=None, repr=False)


def _flow_config(config: OptimizeConfig) -> FlowConfig:
    """The baseline-flow configuration ``run_optimize`` uses when the
    caller does not supply a flow."""
    return FlowConfig(
        seed=config.seed,
        tgen_max_len=config.tgen_max_len,
        tgen_mode=config.tgen_mode,
        compaction_sims=config.compaction_sims,
        procedure=ProcedureConfig(l_g=config.l_g),
        sim_backend=config.sim_backend,
    )


def optimize_journal_key(
    circuit_name: str,
    config: OptimizeConfig,
    l_g: int,
    alphabet: Sequence[Weight],
    windows: Sequence[int],
    baseline: Genome,
) -> str:
    """Checkpoint key: any change to the search space starts fresh."""
    from repro.runtime.keys import config_fingerprint

    fields = {
        "config": asdict(config),
        "l_g": l_g,
        "alphabet": [str(w) for w in alphabet],
        "windows": list(windows),
        "baseline": genome_to_jsonable(baseline),
    }
    return f"optimize:{circuit_name}:{config_fingerprint(fields)[:32]}"


class _Search:
    """One search's mutable state (population, archive, evaluator)."""

    def __init__(
        self,
        circuit: Circuit,
        config: OptimizeConfig,
        flow: FlowResult,
        runtime,
    ) -> None:
        self.circuit = circuit
        self.config = config
        self.runtime = runtime
        kept = list(flow.reverse_order.kept)
        if not kept:
            raise OptimizeError(
                f"the greedy baseline kept no assignments on "
                f"{circuit.name}; nothing to seed the search with"
            )
        self.alphabet = build_alphabet(
            kept, flow.procedure.weight_set, config.max_alphabet
        )
        self.l_g = flow.procedure.l_g
        self.windows = derive_windows(self.l_g)
        self._index = {w: i for i, w in enumerate(self.alphabet)}
        lg_slot = self.windows.index(self.l_g)
        self.baseline_genome: Genome = tuple(
            (tuple(self._index[w] for w in a.weights), lg_slot) for a in kept
        )
        self.max_phases = config.max_phases or max(len(kept), 2)
        self.n_inputs = len(circuit.inputs)
        self.evaluator = PhaseEvaluator(
            circuit, flow.procedure.target_faults, runtime=runtime,
            backend=config.sim_backend,
        )
        self.archive: Dict[Genome, Objectives] = {}
        self.population: List[Genome] = []
        self.journal_key = optimize_journal_key(
            circuit.name,
            config,
            self.l_g,
            self.alphabet,
            self.windows,
            self.baseline_genome,
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, genomes: Sequence[Genome]) -> None:
        """Score every not-yet-archived genome (one batched fan-out)."""
        fresh = []
        seen = set()
        for genome in genomes:
            if genome in self.archive or genome in seen:
                continue
            seen.add(genome)
            fresh.append(genome)
        phases = [
            (WeightAssignment(tuple(self.alphabet[g] for g in genes)),
             self.windows[slot])
            for genome in fresh
            for genes, slot in genome
        ]
        detected_sets = self.evaluator.evaluate_phases(phases)
        pos = 0
        for genome in fresh:
            union: set = set()
            for _ in genome:
                union |= detected_sets[pos]
                pos += 1
            assignments = genome_assignments(genome, self.alphabet)
            max_window = max(self.windows[slot] for _, slot in genome)
            area = self.evaluator.area(assignments, max_window)
            length = sum(self.windows[slot] for _, slot in genome)
            self.archive[genome] = (
                -float(len(union)), area, float(length)
            )

    # -- selection ----------------------------------------------------------

    def _ranking(
        self, genomes: Sequence[Genome]
    ) -> Dict[Genome, Tuple[int, float]]:
        """(rank, -crowding) per genome, for tournament comparison."""
        objs = [self.archive[g] for g in genomes]
        ranking: Dict[Genome, Tuple[int, float]] = {}
        for rank, front in enumerate(fast_non_dominated_sort(objs)):
            distance = crowding_distance(objs, front)
            for i in front:
                ranking[genomes[i]] = (rank, -distance[i])
        return ranking

    def survivors(self, combined: Sequence[Genome]) -> List[Genome]:
        """NSGA-II environmental selection of μ from ``combined``."""
        unique: List[Genome] = []
        seen = set()
        for genome in combined:
            if genome not in seen:
                seen.add(genome)
                unique.append(genome)
        objs = [self.archive[g] for g in unique]
        chosen: List[Genome] = []
        for front in fast_non_dominated_sort(objs):
            if len(chosen) + len(front) <= self.config.population:
                chosen.extend(unique[i] for i in front)
                if len(chosen) == self.config.population:
                    break
                continue
            distance = crowding_distance(objs, front)
            ordered = sorted(
                front, key=lambda i: (-distance[i], unique[i])
            )
            chosen.extend(
                unique[i]
                for i in ordered[: self.config.population - len(chosen)]
            )
            break
        return chosen

    def offspring(self, rng: DeterministicRng) -> List[Genome]:
        """Breed λ = μ children from the current population."""
        ranking = self._ranking(self.population)

        def tournament() -> Genome:
            a = self.population[rng.randint(0, len(self.population) - 1)]
            b = self.population[rng.randint(0, len(self.population) - 1)]
            return min(a, b, key=lambda g: (ranking[g], g))

        children: List[Genome] = []
        for _ in range(self.config.population):
            mother, father = tournament(), tournament()
            if rng.random() < self.config.crossover_rate:
                child = crossover(rng, mother, father)
            else:
                child = mother
            child = child[: self.max_phases]
            child = mutate(
                rng,
                child,
                len(self.alphabet),
                len(self.windows),
                self.max_phases,
                self.config.mutation_rate,
            )
            children.append(child)
        return children

    def initial_population(self, rng: DeterministicRng) -> List[Genome]:
        """Generation 0: the greedy baseline plus random genomes."""
        population = [self.baseline_genome]
        while len(population) < self.config.population:
            population.append(
                random_genome(
                    rng,
                    self.n_inputs,
                    len(self.alphabet),
                    len(self.windows),
                    self.max_phases,
                )
            )
        return population

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, generation: int) -> None:
        journal = getattr(self.runtime, "journal", None)
        if journal is None:
            return
        journal.record(
            self.journal_key,
            {
                "kind": "optimize",
                "generation": generation,
                "population": [genome_to_jsonable(g) for g in self.population],
                "archive": [
                    [genome_to_jsonable(g), list(self.archive[g])]
                    for g in sorted(self.archive)
                ],
            },
        )

    def restore(self) -> Optional[int]:
        """Load the latest checkpoint; return its generation (or None).

        Payloads are validated field by field — anything stale, foreign
        or corrupt is ignored and the search starts from scratch.
        """
        runtime = self.runtime
        if runtime is None or not getattr(runtime, "resume", False):
            return None
        journal = getattr(runtime, "journal", None)
        if journal is None:
            return None
        payload = journal.get(self.journal_key)
        if not isinstance(payload, dict) or payload.get("kind") != "optimize":
            return None
        try:
            generation = int(payload["generation"])
            population = [
                genome_from_jsonable(g) for g in payload["population"]
            ]
            archive = {
                genome_from_jsonable(g): tuple(objs)
                for g, objs in payload["archive"]
            }
        except (KeyError, TypeError, ValueError):
            return None
        if not population or not all(g in archive for g in population):
            return None
        n_alpha, n_win = len(self.alphabet), len(self.windows)
        for genome in archive:
            for genes, slot in genome:
                if len(genes) != self.n_inputs or not 0 <= slot < n_win:
                    return None
                if any(not 0 <= g < n_alpha for g in genes):
                    return None
        self.population = population
        self.archive = archive
        return generation


def run_optimize(
    circuit: Circuit | str,
    config: OptimizeConfig | None = None,
    runtime=None,
    flow: FlowResult | None = None,
) -> OptimizeResult:
    """Run the full multi-objective search on ``circuit``.

    ``flow`` is the greedy baseline to seed from and compare against;
    when omitted it is computed with the config's flow knobs (and the
    same ``runtime``).  Results are bit-identical for any worker count
    and cache state, and across an interrupt-then-``--resume`` rerun.
    """
    cfg = config or OptimizeConfig()
    if isinstance(circuit, str):
        circuit = load_circuit(circuit)
    if flow is None:
        flow = run_full_flow(circuit, _flow_config(cfg), runtime=runtime)

    search = _Search(circuit, cfg, flow, runtime)
    with traced(
        runtime,
        "optimize",
        circuit=circuit.name,
        population=cfg.population,
        generations=cfg.generations,
        seed=cfg.seed,
    ):
        resumed_from = search.restore()
        start = 0 if resumed_from is None else resumed_from + 1
        root = DeterministicRng(cfg.seed)
        for g in range(start, cfg.generations + 1):
            rng = root.fork(g)
            with traced(runtime, "generation", index=g):
                if g == 0:
                    search.population = search.initial_population(rng)
                    search.evaluate(search.population)
                else:
                    children = search.offspring(rng)
                    search.evaluate(children)
                    search.population = search.survivors(
                        list(search.population) + children
                    )
                _generation_event(runtime, search, g)
            search.checkpoint(g)
        result = _finalize(search, cfg, resumed_from)
        trace_event(
            runtime,
            "front",
            circuit=circuit.name,
            size=len(result.front),
            evaluations=result.evaluations,
        )
    result.flow = flow
    return result


def _generation_event(runtime, search: _Search, g: int) -> None:
    """One deterministic progress event per generation."""
    objs = [search.archive[genome] for genome in search.population]
    fronts = fast_non_dominated_sort(objs)
    front = fronts[0] if fronts else []
    best_detected = max((int(-objs[i][0]) for i in front), default=0)
    min_area = min((objs[i][1] for i in front), default=0.0)
    trace_event(
        runtime,
        "generation",
        gen=g,
        evaluated=len(search.archive),
        front=len(front),
        best_detected=best_detected,
        min_area=min_area,
    )


def _point(search: _Search, genome: Genome) -> FrontPoint:
    objs = search.archive[genome]
    detected = int(-objs[0])
    n_faults = len(search.evaluator.faults)
    return FrontPoint(
        genome=genome,
        assignments=tuple(
            tuple(str(search.alphabet[g]) for g in genes)
            for genes, _slot in genome
        ),
        windows=tuple(search.windows[slot] for _genes, slot in genome),
        detected=detected,
        coverage=detected / n_faults if n_faults else 1.0,
        area=float(objs[1]),
        length=int(objs[2]),
    )


def _finalize(
    search: _Search, cfg: OptimizeConfig, resumed_from: Optional[int]
) -> OptimizeResult:
    """The non-dominated set of the archive, deterministically ordered."""
    genomes = sorted(search.archive)
    objs = [search.archive[g] for g in genomes]
    front_idx = fast_non_dominated_sort(objs)[0]
    points = sorted(
        (_point(search, genomes[i]) for i in front_idx),
        key=lambda p: (p.objectives, p.genome),
    )
    return OptimizeResult(
        circuit_name=search.circuit.name,
        config=cfg,
        alphabet=search.alphabet,
        windows=search.windows,
        baseline=_point(search, search.baseline_genome),
        front=points,
        generations_run=cfg.generations + 1,
        evaluations=len(search.archive),
        n_target_faults=len(search.evaluator.faults),
        journal_key=search.journal_key,
        resumed_from=resumed_from,
    )
