"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro circuits
    python -m repro flow s27 --lg 256 --verilog tpg.v --bench tpg.bench
    python -m repro flow g1488 --stats
    python -m repro flow s27 --save-tpg design.json --lint strict
    python -m repro table6 s27 g208 --jobs 2
    python -m repro tradeoff g208
    python -m repro atpg s27
    python -m repro bench-info path/to/design.bench
    python -m repro lint s27 design.json --format sarif --output lint.sarif
    python -m repro lint --all-circuits --self --fail-on error

Every command prints plain text; files are written only when an output
path is given explicitly.

The simulation-heavy commands (``flow``, ``table6``, ``tradeoff``)
accept runtime flags: ``--jobs N`` runs up to N circuits of a
``table6`` sweep at once, one whole flow per worker process (a
single-circuit command always runs in one process), ``--cache-dir
PATH`` / ``--no-cache`` control the
on-disk artifact cache (on by default, under ``~/.cache/repro``),
``--stats`` prints the runtime counters after the command, and
``--lint [warn|strict]`` runs the static diagnostics gate on circuits
and synthesized TPGs as they flow through.  Results are bit-identical
regardless of worker count or cache state.

They also accept the resilience flags: ``--task-timeout SECONDS`` and
``--retries N`` govern recovery from hung or crashed workers (failing
tasks are ultimately replayed serially, so results never change),
``--resume`` lets a sweep skip circuits already checkpointed by an
earlier — possibly interrupted — run, and ``--chaos SPEC`` turns on
the deterministic fault-injection harness (for testing the recovery
paths).  SIGINT/SIGTERM stop a sweep cleanly: completed circuits stay
checkpointed and the command exits with status 130.

And the tracing flags: ``--trace PATH`` records a hierarchical span
trace of the run (wall/CPU time and runtime-counter deltas per phase)
and ``--trace-format text|json|chrome`` selects the export — ``chrome``
loads directly into Perfetto.  ``repro trace show|convert|compare``
works with the written artifacts; ``compare`` gates per-phase timings
against a baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__
from repro.circuit import (
    Circuit,
    available_circuits,
    circuit_stats,
    load_circuit,
    parse_bench,
    write_bench,
)
from repro.circuit.verilog import write_verilog
from repro.core import ProcedureConfig, WeightAssignment
from repro.core.report import format_table6
from repro.errors import ReproError, SweepInterrupted, TraceError
from repro.flows import FlowConfig, run_full_flow
from repro.obs import format_tradeoff, observation_point_tradeoff
from repro.sim import all_faults, collapse_faults
from repro.trace.compare import DEFAULT_MIN_SECONDS, DEFAULT_TOLERANCE
from repro.trace.export import EXPORT_FORMATS


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except SweepInterrupted as exc:
        print(f"repro: interrupted: {exc}", file=sys.stderr)
        return 130
    except (ReproError, FileNotFoundError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Built-in generation of weighted test sequences for "
            "synchronous sequential circuits (Pomeranz & Reddy, DATE 2000)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers()

    p = sub.add_parser("circuits", help="list the embedded benchmark circuits")
    p.set_defaults(handler=_cmd_circuits)

    p = sub.add_parser("flow", help="run the full pipeline on one circuit")
    p.add_argument("circuit", help="library name (e.g. s27) or .bench path")
    p.add_argument("--lg", type=int, default=512, help="weighted sequence length L_G")
    p.add_argument("--seed", type=int, default=1, help="test generation seed")
    p.add_argument("--hybrid", action="store_true",
                   help="use random + deterministic ATPG test generation")
    p.add_argument("--verilog", type=Path, default=None,
                   help="write the synthesized TPG as Verilog")
    p.add_argument("--bench", type=Path, default=None,
                   help="write the synthesized TPG as .bench")
    p.add_argument("--save-seq", type=Path, default=None,
                   help="write the deterministic test sequence T")
    p.add_argument("--save-tpg", type=Path, default=None,
                   help="write the full TPG design (netlist + Ω + L_G) as "
                        "JSON, reloadable by `repro lint`")
    p.add_argument("--static-prune", action="store_true",
                   help="also report the faults the static implication "
                        "engine proves untestable, each with a "
                        "certificate (a report only: every fault is "
                        "still simulated, all other output is identical)")
    _add_runtime_flags(p)
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser(
        "analyze",
        help="static implication analysis and redundancy certificates",
        description=(
            "Run the static implication engine on one circuit: "
            "value-set constant propagation over the time-unrolled "
            "sequential structure, direct and learned implications, "
            "fanout-free regions and dominators, and a per-fault "
            "untestability verdict with a machine-checkable "
            "certificate for every fault proved untestable.  Emits "
            "one canonical JSON document."
        ),
    )
    p.add_argument("circuit", help="library name (e.g. s27) or .bench path")
    p.add_argument("--faults", dest="fault_universe", default="collapsed",
                   choices=("collapsed", "all"),
                   help="fault universe to issue verdicts for "
                        "(default: the collapsed list the flows target)")
    p.add_argument("--max-frames", type=int, default=None, metavar="N",
                   help="sequential unrolling bound for the value-set "
                        "fixpoint (default: derived from the flop count)")
    p.add_argument("--check", action="store_true",
                   help="independently re-validate every emitted "
                        "certificate before printing (defense in depth; "
                        "fails loudly on any invalid certificate)")
    p.add_argument("--output", type=Path, default=None, metavar="PATH",
                   help="write the analysis JSON to PATH and print a "
                        "one-line summary instead of dumping to stdout")
    _add_runtime_flags(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("table6", help="regenerate the paper's Table 6")
    p.add_argument("circuits", nargs="*", help="circuit names (default: fast suite)")
    _add_runtime_flags(p)
    p.set_defaults(handler=_cmd_table6)

    p = sub.add_parser("tradeoff", help="observation-point tradeoff (Tables 7-16)")
    p.add_argument("circuit")
    _add_runtime_flags(p)
    p.set_defaults(handler=_cmd_tradeoff)

    p = sub.add_parser(
        "optimize",
        help="multi-objective search over weight assignments",
        description=(
            "Seeded NSGA-II search over weight assignments drawn from "
            "the quantized hardware alphabet, reporting the Pareto "
            "front over (fault coverage, TPG area, test length) "
            "against the paper's greedy Ω baseline.  Fully "
            "deterministic: the front is byte-identical for any "
            "--jobs value and across an interrupted run rerun with "
            "--resume."
        ),
    )
    p.add_argument("circuit", help="library name (e.g. s27) or .bench path")
    p.add_argument("--population", type=int, default=16, metavar="N",
                   help="population size μ (default: 16)")
    p.add_argument("--generations", type=int, default=8, metavar="N",
                   help="offspring generations after the seeded "
                        "generation 0 (default: 8)")
    p.add_argument("--seed", type=int, default=1,
                   help="search (and baseline flow) seed")
    p.add_argument("--lg", type=int, default=512,
                   help="baseline weighted sequence length L_G")
    p.add_argument("--tgen-max-len", type=int, default=2000, metavar="N",
                   help="baseline test-generation length cap")
    p.add_argument("--compaction-sims", type=int, default=60, metavar="N",
                   help="baseline compaction budget (0 disables)")
    p.add_argument("--output", type=Path, default=None, metavar="PATH",
                   help="write the canonical front JSON to PATH")
    p.add_argument("--save-tpg", type=Path, default=None, metavar="PATH",
                   help="save the best-coverage front point as a TPG "
                        "design carrying the full weight alphabet")
    _add_runtime_flags(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("atpg", help="run deterministic ATPG on a circuit")
    p.add_argument("circuit")
    p.set_defaults(handler=_cmd_atpg)

    p = sub.add_parser("scan", help="full-scan insertion + combinational ATPG")
    p.add_argument("circuit")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("bench-info", help="parse a .bench file and show statistics")
    p.add_argument("path", type=Path)
    p.set_defaults(handler=_cmd_bench_info)

    p = sub.add_parser(
        "lint",
        help="static diagnostics for circuits, TPG designs and Python code",
        description=(
            "Lint targets may be library circuit names (s27), .bench "
            "netlists, saved TPG designs (.json from `flow --save-tpg`), "
            "Python files, or directories of Python files."
        ),
    )
    p.add_argument("targets", nargs="*",
                   help="circuit name, .bench / .json / .py path, or directory")
    p.add_argument("--self", dest="lint_self", action="store_true",
                   help="lint the repro package's own sources "
                        "(determinism rules)")
    p.add_argument("--all-circuits", action="store_true",
                   help="lint every embedded library circuit")
    p.add_argument("--static", dest="lint_static", action="store_true",
                   help="also run the implication-engine rules "
                        "(C010-C013) on circuit targets; slower")
    p.add_argument("--format", dest="fmt", default="text",
                   choices=("text", "json", "sarif"),
                   help="output format (default: text)")
    p.add_argument("--output", type=Path, default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.add_argument("--fail-on", default="error",
                   choices=("note", "warning", "error", "never"),
                   help="exit non-zero when findings at or above this "
                        "severity exist (default: error)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(handler=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="inspect, convert and compare trace artifacts",
        description=(
            "Work with traces written by `repro flow/table6/tradeoff "
            "--trace PATH`: print the span tree, re-export to another "
            "format (chrome opens in Perfetto / chrome://tracing), or "
            "compare per-phase timings against a baseline artifact."
        ),
    )
    tsub = p.add_subparsers()

    ts = tsub.add_parser("show", help="print a JSON trace as a text tree")
    ts.add_argument("path", type=Path, help="JSON trace artifact")
    ts.set_defaults(handler=_cmd_trace_show)

    tc = tsub.add_parser("convert", help="re-export a JSON trace")
    tc.add_argument("path", type=Path, help="JSON trace artifact")
    tc.add_argument("--to", dest="fmt", default="chrome",
                    choices=EXPORT_FORMATS,
                    help="target format (default: chrome)")
    tc.add_argument("--output", type=Path, required=True, metavar="PATH")
    tc.set_defaults(handler=_cmd_trace_convert)

    tp = tsub.add_parser(
        "compare",
        help="compare per-phase timings against a baseline",
        description=(
            "Both arguments may be JSON trace artifacts or the "
            "benchmark harness's phase-timing artifacts "
            "(benchmarks/results/*.json with a 'phases' table).  Exits "
            "1 when any phase regressed beyond the tolerance."
        ),
    )
    tp.add_argument("baseline", type=Path)
    tp.add_argument("current", type=Path)
    tp.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    metavar="FRACTION",
                    help="allowed fractional growth per phase "
                         f"(default: {DEFAULT_TOLERANCE})")
    tp.add_argument("--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
                    metavar="SECONDS",
                    help="absolute growth below this is never a regression "
                         f"(default: {DEFAULT_MIN_SECONDS})")
    tp.set_defaults(handler=_cmd_trace_compare)

    def _trace_help(args: argparse.Namespace) -> int:
        p.print_help()
        return 2

    p.set_defaults(handler=_trace_help)

    p = sub.add_parser(
        "serve",
        help="run the BIST-campaign job server",
        description=(
            "Serve the job API over HTTP: durable priority queue, "
            "per-client rate limits, load shedding, graceful drain on "
            "SIGINT/SIGTERM.  All state (queue journal, results, "
            "artifact cache) lives under --state-dir; restarting on "
            "the same directory resumes every acknowledged job."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8037,
                   help="TCP port (0 binds an ephemeral port; the bound "
                        "address is printed on startup)")
    p.add_argument("--state-dir", type=Path, default=None, metavar="PATH",
                   help="server state root (default: "
                        "$REPRO_CACHE_DIR/serve or ~/.cache/repro/serve)")
    p.add_argument("--queue-cap", type=int, default=None, metavar="N",
                   help="bounded queue depth; beyond it submissions shed "
                        "lower-priority work or get 503 (default: 64)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="per-client admission rate, jobs/second "
                        "(default: 20)")
    p.add_argument("--burst", type=int, default=None, metavar="B",
                   help="per-client burst allowance (default: 20)")
    p.add_argument("--drain-grace", type=float, default=60.0,
                   metavar="SECONDS",
                   help="seconds to wait for the in-flight job on drain "
                        "(default: 60)")
    p.add_argument("--cache-dir", type=Path, default=None, metavar="PATH",
                   help="artifact cache root (default: inside --state-dir)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the artifact cache (reruns recompute)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="deterministic fault injection for the job "
                        "runtimes and the worker service (results are "
                        "still bit-identical)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="supervised worker processes executing jobs "
                        "under leased ownership; 1 (the default) runs "
                        "jobs on the in-process scheduler")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   metavar="SECONDS",
                   help="lease deadline per claim; worker heartbeats "
                        "renew it (default: 30)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="heartbeat silence after which a worker is "
                        "declared hung and restarted (default: 10)")
    p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                   help="write the server's span trace (job lifecycle "
                        "events included) on drain")
    p.add_argument("--trace-format", default="json", choices=EXPORT_FORMATS)
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a campaign job to a running server",
    )
    p.add_argument("circuit", help="library circuit name (e.g. s27)")
    p.add_argument("--server", default="http://127.0.0.1:8037",
                   metavar="URL", help="server base URL")
    p.add_argument("--priority", type=int, default=None, metavar="0-9",
                   help="dispatch priority, higher first (default: 4)")
    p.add_argument("--client", default=None, metavar="NAME",
                   help="client identity for rate limiting/fair share "
                        "(default: submit-<user>)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lg", type=int, default=512,
                   help="weighted sequence length L_G")
    p.add_argument("--hybrid", action="store_true",
                   help="random + deterministic ATPG test generation")
    p.add_argument("--synthesize", action="store_true",
                   help="also synthesize and verify the TPG")
    p.add_argument("--task", default="flow", choices=("flow", "optimize"),
                   help="job type: the greedy flow or the multi-objective "
                        "weight search (default: flow)")
    p.add_argument("--population", type=int, default=8, metavar="N",
                   help="optimize-task population size (default: 8)")
    p.add_argument("--generations", type=int, default=2, metavar="N",
                   help="optimize-task generation count (default: 2)")
    p.add_argument("--static-prune", action="store_true",
                   help="also report the faults the static implication "
                        "engine proves untestable (a flow result gains a "
                        "proved_untestable section; nothing else changes)")
    p.add_argument("--sim-backend", default="auto",
                   choices=("auto", "python", "vector"),
                   help="fault-simulation backend the job runs with; "
                        "results (and the job key) are backend-"
                        "independent (default: auto)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print the result")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                   help="max seconds to wait with --wait (default: 300)")
    p.set_defaults(handler=_cmd_submit)

    p = sub.add_parser(
        "jobs",
        help="list, inspect, cancel or fetch jobs on a running server",
    )
    p.add_argument("key", nargs="?", default=None,
                   help="job key (omit to list every job)")
    p.add_argument("--server", default="http://127.0.0.1:8037",
                   metavar="URL", help="server base URL")
    p.add_argument("--cancel", action="store_true",
                   help="cancel the queued job KEY")
    p.add_argument("--result", action="store_true",
                   help="print the job's canonical result JSON")
    p.add_argument("--job-trace", action="store_true",
                   help="print the job's normalized trace JSON")
    p.add_argument("--metrics", action="store_true",
                   help="print the server's /metrics payload")
    p.add_argument("--watch", action="store_true",
                   help="follow the job's live progress events "
                        "(long-poll) until it reaches a terminal state")
    p.add_argument("--watch-timeout", type=float, default=300.0,
                   metavar="SECONDS",
                   help="give up watching after this long (default: 300)")
    p.set_defaults(handler=_cmd_jobs)

    p = sub.add_parser("report", help="render benchmarks/results/ as an HTML report")
    p.add_argument("--results", type=Path, default=Path("benchmarks/results"))
    p.add_argument("--output", type=Path, default=Path("report.html"))
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "campaign",
        help="experiment warehouse: ingest, run, query, report, suggest",
        description=(
            "Operate a sqlite experiment warehouse over every artifact "
            "the repo produces.  `ingest` loads artifacts (idempotent, "
            "content-addressed), `run` drives a factorial design "
            "through a campaign server (or locally), `query` prints "
            "deterministic views, `report` renders a self-contained "
            "HTML dashboard and `suggest` sizes knobs from fitted "
            "regression models."
        ),
    )
    csub = p.add_subparsers()

    ci = csub.add_parser(
        "ingest", help="ingest artifact files/directories into the store"
    )
    ci.add_argument("paths", type=Path, nargs="+",
                    help="result files, journals, traces, benchmark "
                         "artifacts or directories of them")
    ci.add_argument("--store", type=Path, default=Path("campaign.db"),
                    metavar="PATH", help="sqlite store (default: "
                                         "campaign.db, created on demand)")
    ci.set_defaults(handler=_cmd_campaign_ingest)

    cr = csub.add_parser(
        "run", help="run a factorial campaign and warehouse the results"
    )
    cr.add_argument("grid",
                    help="grid spec, e.g. 'circuit=s27,g208 l_g=256,512 "
                         "static_prune=0,1 seed=1'")
    cr.add_argument("--store", type=Path, default=Path("campaign.db"),
                    metavar="PATH")
    cr.add_argument("--name", default="campaign",
                    help="campaign name in the store (default: campaign)")
    cr.add_argument("--fraction", type=int, default=1, metavar="K",
                    help="keep every point whose level-index parity sum "
                         "is 0 mod K (1 = full factorial)")
    cr.add_argument("--server", default=None, metavar="URL",
                    help="campaign server to run through (default: run "
                         "points locally through the same execution core)")
    cr.add_argument("--timeout", type=float, default=600.0,
                    metavar="SECONDS",
                    help="overall budget when running through a server")
    cr.add_argument("--tgen-max-len", type=int, default=2000, metavar="N",
                    help="test-generation budget for every point not "
                         "sweeping it (default: 2000)")
    cr.add_argument("--compaction-sims", type=int, default=60, metavar="N",
                    help="compaction budget for every point not sweeping "
                         "it (default: 60)")
    cr.set_defaults(handler=_cmd_campaign_run)

    cq = csub.add_parser(
        "query", help="print deterministic views of the store"
    )
    cq.add_argument("--store", type=Path, default=Path("campaign.db"),
                    metavar="PATH")
    cq.add_argument("--view", default="summary",
                    choices=("summary", "table6", "fronts", "timings",
                             "jobs", "campaigns", "circuits", "benchmarks"),
                    help="which view to print (default: summary)")
    cq.add_argument("--circuit", default=None,
                    help="restrict table6/fronts to one circuit")
    cq.add_argument("--campaign", default=None,
                    help="restrict table6 to one campaign's points")
    cq.add_argument("--sql", default=None, metavar="SELECT",
                    help="run one read-only SELECT instead of a view")
    cq.add_argument("--json", action="store_true",
                    help="print rows as canonical JSON")
    cq.set_defaults(handler=_cmd_campaign_query)

    cp = csub.add_parser(
        "report", help="render the store as text, JSON or an HTML dashboard"
    )
    cp.add_argument("--store", type=Path, default=Path("campaign.db"),
                    metavar="PATH")
    cp.add_argument("--format", dest="fmt", default="text",
                    choices=("text", "json", "html"),
                    help="output format (default: text)")
    cp.add_argument("--output", type=Path, default=None, metavar="PATH",
                    help="write to a file instead of stdout")
    cp.set_defaults(handler=_cmd_campaign_report)

    cs = csub.add_parser(
        "suggest",
        help="size campaign knobs for a circuit from fitted models",
    )
    cs.add_argument("circuit", help="library circuit name (e.g. s27)")
    cs.add_argument("--store", type=Path, default=Path("campaign.db"),
                    metavar="PATH")
    cs.add_argument("--target-coverage", type=float, default=0.9,
                    metavar="FRACTION",
                    help="coverage the suggestion must reach "
                         "(default: 0.9)")
    cs.add_argument("--json", action="store_true",
                    help="print the full prediction payload as JSON")
    cs.set_defaults(handler=_cmd_campaign_suggest)

    def _campaign_help(args: argparse.Namespace) -> int:
        p.print_help()
        return 2

    p.set_defaults(handler=_campaign_help)

    return parser


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("runtime")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for a table6 sweep, one whole "
                        "flow per circuit; single-circuit commands run in "
                        "one process (default: 1)")
    g.add_argument("--sim-backend", default="auto",
                   choices=("auto", "python", "vector"),
                   help="fault-simulation backend; results are "
                        "bit-identical, 'vector' packs faults into "
                        "machine words (default: auto)")
    g.add_argument("--cache-dir", type=Path, default=None, metavar="PATH",
                   help="artifact cache directory "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    g.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk artifact cache")
    g.add_argument("--stats", action="store_true",
                   help="print runtime statistics after the command")
    g.add_argument("--lint", nargs="?", const="warn", default="off",
                   choices=("warn", "strict"), metavar="POLICY",
                   help="lint circuits and TPG designs as they flow through: "
                        "'warn' records findings in --stats, 'strict' "
                        "aborts on error-severity findings "
                        "(default policy when the flag is bare: warn)")
    r = p.add_argument_group("resilience")
    r.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task timeout for pool workers (a task is one "
                        "circuit's whole flow); a hung worker is abandoned, "
                        "the pool rebuilt and the task retried "
                        "(default: no timeout)")
    r.add_argument("--retries", type=int, default=2, metavar="N",
                   help="pool retries per failed/hung/corrupted task "
                        "before it is replayed serially (default: 2)")
    r.add_argument("--resume", action="store_true",
                   help="skip circuits already checkpointed under the "
                        "cache dir by an earlier (possibly interrupted) "
                        "run; results are identical either way")
    r.add_argument("--chaos", default=None, metavar="SPEC",
                   help="deterministic fault injection for exercising the "
                        "recovery paths, e.g. "
                        "'crash=0.2,hang=0.1,corrupt=0.1,cache=0.3,seed=7' "
                        "(results are still bit-identical)")
    t = p.add_argument_group("tracing")
    t.add_argument("--trace", type=Path, default=None, metavar="PATH",
                   help="record a hierarchical span trace of the run and "
                        "write it to PATH (see `repro trace --help`)")
    t.add_argument("--trace-format", default="json", choices=EXPORT_FORMATS,
                   help="trace output format: human text tree, JSON "
                        "artifact, or Chrome trace events for Perfetto "
                        "(default: json)")


def _check_trace_output(args: argparse.Namespace) -> None:
    """Reject an unwritable ``--trace`` destination *before* the run —
    the clean one-line error beats losing minutes of simulation."""
    trace = getattr(args, "trace", None)
    if trace is None:
        return
    parent = trace.parent
    if not parent.is_dir():
        raise TraceError(
            f"cannot write trace {trace}: directory {parent} does not exist"
        )
    if trace.is_dir():
        raise TraceError(f"cannot write trace {trace}: it is a directory")


def _write_trace(runtime, args: argparse.Namespace) -> None:
    """Seal the runtime's tracer and export it to ``--trace``."""
    if getattr(args, "trace", None) is None or runtime.tracer is None:
        return
    from repro.trace import export_trace

    root = runtime.tracer.finish()
    export_trace(root, runtime.tracer.events, args.trace, args.trace_format)
    print(f"wrote {args.trace} ({args.trace_format} trace)")


def _make_runtime(args: argparse.Namespace):
    from repro.runtime import RuntimeContext

    _check_trace_output(args)
    return RuntimeContext(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        enable_cache=not args.no_cache,
        lint=args.lint,
        task_timeout=args.task_timeout,
        retries=args.retries,
        chaos=args.chaos,
        resume=args.resume,
        trace=getattr(args, "trace", None) is not None,
        sim_backend=getattr(args, "sim_backend", "auto"),
    )


def _load(ref: str):
    if ref.endswith(".bench") or "/" in ref:
        return parse_bench(ref)
    return load_circuit(ref)


def _cmd_circuits(args: argparse.Namespace) -> int:
    for name in available_circuits():
        print(circuit_stats(load_circuit(name)).describe())
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    config = FlowConfig(
        seed=args.seed,
        tgen_mode="hybrid" if args.hybrid else "random",
        procedure=ProcedureConfig(l_g=args.lg),
        synthesize_hardware=True,
        static_prune=args.static_prune,
        sim_backend=args.sim_backend,
    )
    from repro.resilience import handle_termination

    with _make_runtime(args) as runtime, handle_termination():
        flow = run_full_flow(circuit, config, runtime=runtime)
    print(format_table6([flow.table6]))
    print(f"\nT: {len(flow.sequence)} cycles, coverage "
          f"{100 * flow.generated.coverage:.1f}% of the collapsed fault list")
    if flow.pruned is not None:
        print(f"proved untestable: {flow.pruned.n_pruned}/"
              f"{flow.pruned.n_faults} faults, each certified "
              "(a report only; denominators unchanged)")
    print(f"TPG verified: {flow.tpg_verified}")
    if flow.tpg is not None:
        if args.verilog is not None:
            args.verilog.write_text(write_verilog(flow.tpg.circuit))
            print(f"wrote {args.verilog}")
        if args.bench is not None:
            args.bench.write_text(write_bench(flow.tpg.circuit))
            print(f"wrote {args.bench}")
        if args.save_tpg is not None:
            from repro.hw.design_io import save_design

            save_design(flow.tpg, args.save_tpg)
            print(f"wrote {args.save_tpg}")
    if args.save_seq is not None:
        from repro.tgen.io import save_sequence

        save_sequence(
            flow.sequence,
            args.save_seq,
            comment=f"{flow.circuit.name}: deterministic test sequence T "
                    f"({len(flow.sequence)} cycles)",
        )
        print(f"wrote {args.save_seq}")
    if args.stats:
        print()
        print(runtime.stats.format())
    _write_trace(runtime, args)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.static import analyze, check_certificate
    from repro.errors import AnalysisError
    from repro.resilience import handle_termination

    circuit = _load(args.circuit)
    faults = all_faults(circuit) if args.fault_universe == "all" else None
    with _make_runtime(args) as runtime, handle_termination():
        analysis = analyze(
            circuit, faults=faults, runtime=runtime,
            max_frames=args.max_frames,
        )
    if args.check:
        bad = [
            name for name, cert in sorted(analysis.certificates.items())
            if not check_certificate(circuit, cert)
        ]
        if bad:
            raise AnalysisError(
                f"{len(bad)} certificate(s) failed independent "
                f"re-validation: {', '.join(bad[:5])}"
            )
    summary = analysis.payload.get("summary", {})
    if isinstance(summary, dict):
        by_kind = summary.get("by_kind", {})
        detail = (
            " (" + ", ".join(f"{k}: {v}" for k, v in sorted(by_kind.items()))
            + ")" if by_kind else ""
        )
        line = (f"{circuit.name}: {summary.get('proved_untestable', 0)}/"
                f"{summary.get('n_faults', 0)} faults proved untestable"
                f"{detail}")
    else:  # pragma: no cover - payload always carries a summary
        line = circuit.name
    if args.output is not None:
        args.output.write_text(analysis.to_json())
        print(f"wrote {args.output}")
        print(line)
    else:
        # stdout stays pure canonical JSON; the summary goes to stderr.
        sys.stdout.write(analysis.to_json())
        print(line, file=sys.stderr)
    if args.stats:
        print()
        print(runtime.stats.format())
    _write_trace(runtime, args)
    return 0


def _cmd_table6(args: argparse.Namespace) -> int:
    from repro.flows import table6_rows
    from repro.resilience import handle_termination

    names = tuple(args.circuits) or None
    with _make_runtime(args) as runtime, handle_termination():
        rows = table6_rows(names, runtime=runtime, sim_backend=args.sim_backend)
    print(format_table6(rows))
    if args.stats:
        print()
        print(runtime.stats.format())
    _write_trace(runtime, args)
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.flows import flow_for
    from repro.resilience import handle_termination

    with _make_runtime(args) as runtime, handle_termination():
        flow = flow_for(args.circuit, runtime=runtime)
        rows = observation_point_tradeoff(
            flow.circuit, flow.procedure, runtime=runtime
        )
    print(format_tradeoff(args.circuit, rows))
    if args.stats:
        print()
        print(runtime.stats.format())
    _write_trace(runtime, args)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.optimize import (
        OptimizeConfig,
        render_front,
        render_front_table,
        run_optimize,
    )
    from repro.resilience import handle_termination

    circuit = _load(args.circuit)
    config = OptimizeConfig(
        seed=args.seed,
        population=args.population,
        generations=args.generations,
        l_g=args.lg,
        tgen_max_len=args.tgen_max_len,
        compaction_sims=args.compaction_sims,
        sim_backend=args.sim_backend,
    )
    with _make_runtime(args) as runtime, handle_termination():
        result = run_optimize(circuit, config, runtime=runtime)
    print(render_front_table(result))
    if args.output is not None:
        args.output.write_text(render_front(result))
        print(f"wrote {args.output}")
    if args.save_tpg is not None:
        from repro.hw.design_io import save_design
        from repro.hw.tpg import synthesize_tpg

        best = max(result.front, key=lambda p: (p.detected, -p.area))
        design = synthesize_tpg(
            [WeightAssignment.from_strings(list(a)) for a in best.assignments],
            max(best.windows),
            circuit.inputs,
            alphabet=result.alphabet,
        )
        if runtime is not None:
            runtime.lint_design(design)
        save_design(design, args.save_tpg)
        print(f"wrote {args.save_tpg}")
    if args.stats:
        print()
        print(runtime.stats.format())
    _write_trace(runtime, args)
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.atpg import deterministic_atpg

    circuit = _load(args.circuit)
    faults = collapse_faults(circuit)
    result = deterministic_atpg(circuit, faults)
    print(f"{circuit.name}: {len(result.detected)}/{len(faults)} faults "
          f"detected by a {len(result.sequence)}-cycle sequence")
    print(f"aborted: {len(result.aborted)}, "
          f"untestable at max depth: {len(result.exhausted)}, "
          f"PODEM runs: {result.n_podem_runs}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.scan import scan_atpg, scan_cost

    circuit = _load(args.circuit)
    result = scan_atpg(circuit)
    cost = scan_cost(circuit, result.design)
    supported = (
        len(result.detected) + len(result.untestable) + len(result.aborted)
    )
    print(f"{circuit.name}: {len(result.tests)} scan tests, "
          f"{len(result.detected)}/{supported} supported faults detected")
    print(f"proven untestable: {len(result.untestable)}, "
          f"aborted: {len(result.aborted)}, "
          f"unsupported (DFF D-pin branches): {len(result.unsupported)}")
    print(f"session: {result.session_cycles} cycles "
          f"({result.design.chain_length}-cell chain); "
          f"overhead: {cost.extra_gates} gates, {cost.extra_ports} pins")
    return 0


def _cmd_bench_info(args: argparse.Namespace) -> int:
    circuit = parse_bench(args.path)
    print(circuit_stats(circuit).describe())
    print(f"fault universe: {len(all_faults(circuit))} "
          f"({len(collapse_faults(circuit))} collapsed)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.errors import LintError
    from repro.lint import (
        FORMATTERS,
        LintReport,
        Severity,
        all_rules,
        lint_bench_path,
        lint_circuit,
        lint_design_path,
        lint_package,
        lint_python_path,
        lint_static,
    )

    def lint_one_circuit(circuit: Circuit, artifact: str) -> LintReport:
        report = lint_circuit(circuit, artifact=artifact)
        if args.lint_static:
            report = report.merge(lint_static(circuit, artifact=artifact))
        return report

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {str(rule.severity):<7} "
                  f"{rule.name:<26} {rule.summary}")
        return 0

    if not args.targets and not args.lint_self and not args.all_circuits:
        raise LintError(
            "nothing to lint: give a target, --self or --all-circuits "
            "(see `repro lint --help`)"
        )

    report = LintReport()
    for target in args.targets:
        path = Path(target)
        if target.endswith(".bench"):
            report = report.merge(lint_bench_path(path))
            if args.lint_static:
                # The structural pass tolerates unbuildable netlists;
                # the static rules need a real circuit, so only run
                # them when the bench parses.
                try:
                    circuit = parse_bench(path)
                except ReproError:
                    pass
                else:
                    report = report.merge(
                        lint_static(circuit, artifact=target)
                    )
        elif target.endswith(".json"):
            report = report.merge(lint_design_path(path))
        elif target.endswith(".py"):
            try:
                report = report.merge(lint_python_path(path))
            except SyntaxError as exc:
                raise LintError(f"{path}: not parseable: {exc}") from exc
        elif path.is_dir():
            report = report.merge(lint_package(path))
        elif target in available_circuits():
            report = report.merge(
                lint_one_circuit(load_circuit(target), artifact=target)
            )
        else:
            raise LintError(
                f"cannot lint {target!r}: not a library circuit, .bench, "
                ".json design, .py file or directory"
            )
    if args.all_circuits:
        for name in available_circuits():
            report = report.merge(
                lint_one_circuit(load_circuit(name), artifact=name)
            )
    if args.lint_self:
        report = report.merge(lint_package())

    rendered = FORMATTERS[args.fmt](report)
    if args.output is not None:
        args.output.write_text(rendered + "\n")
        print(f"wrote {args.output} ({len(report)} findings)")
    else:
        print(rendered)

    if args.fail_on != "never" and report.at_least(Severity.parse(args.fail_on)):
        return 1
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.trace import load_trace, render_text

    root, events = load_trace(args.path)
    print(render_text(root, events), end="")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.trace import export_trace, load_trace

    root, events = load_trace(args.path)
    export_trace(root, events, args.output, args.fmt)
    print(f"wrote {args.output} ({args.fmt} trace)")
    return 0


def _cmd_trace_compare(args: argparse.Namespace) -> int:
    from repro.trace import compare_phases, load_phases, regressions

    deltas = compare_phases(
        load_phases(args.baseline),
        load_phases(args.current),
        tolerance=args.tolerance,
        min_seconds=args.min_seconds,
    )
    for delta in deltas:
        print(delta.format())
    bad = regressions(deltas)
    if bad:
        print(
            f"{len(bad)} phase(s) regressed beyond the "
            f"{100 * args.tolerance:.0f}% tolerance",
            file=sys.stderr,
        )
        return 1
    print("no phase regressions")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.cache import default_cache_dir
    from repro.serve import CampaignServer, ServerConfig

    state_dir = args.state_dir
    if state_dir is None:
        state_dir = default_cache_dir() / "serve"
    _check_trace_output(args)
    kwargs = {}
    if args.queue_cap is not None:
        kwargs["queue_capacity"] = args.queue_cap
    if args.rate is not None:
        kwargs["rate_per_s"] = args.rate
    if args.burst is not None:
        kwargs["burst"] = args.burst
    server = CampaignServer(ServerConfig(
        state_dir=state_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        enable_cache=not args.no_cache,
        chaos=args.chaos,
        drain_grace_s=args.drain_grace,
        trace_path=args.trace,
        trace_format=args.trace_format,
        workers=args.workers,
        lease_ttl_s=args.lease_ttl,
        heartbeat_timeout_s=args.heartbeat_timeout,
        **kwargs,
    ))

    def ready(host: str, port: int) -> None:
        print(f"repro-serve: listening on http://{host}:{port} "
              f"(state: {state_dir})", flush=True)

    code = server.run(ready=ready)
    print("repro-serve: drained cleanly", flush=True)
    if args.trace is not None:
        print(f"wrote {args.trace} ({args.trace_format} trace)")
    return code


def _cmd_submit(args: argparse.Namespace) -> int:
    import getpass

    from repro.serve import JobSpec, ServeClient

    client_id = args.client
    if client_id is None:
        # Client identity only routes rate limiting, never results.
        client_id = f"submit-{getpass.getuser()}"  # lint: ignore[D104]
    spec_kwargs = dict(
        circuit=args.circuit,
        task=args.task,
        seed=args.seed,
        l_g=args.lg,
        tgen_mode="hybrid" if args.hybrid else "random",
        synthesize_hardware=args.synthesize,
        static_prune=args.static_prune,
        sim_backend=args.sim_backend,
        population=args.population,
        generations=args.generations,
        client=client_id,
    )
    if args.priority is not None:
        spec_kwargs["priority"] = args.priority
    spec = JobSpec(**spec_kwargs)
    client = ServeClient(args.server, client_id=client_id)
    record = client.submit(spec)
    key = record.get("key")
    verb = "submitted" if record.get("created") else "deduplicated onto"
    print(f"{verb} job {key} ({args.circuit}, "
          f"priority {spec.priority}, state {record.get('state')})")
    if record.get("shed"):
        print(f"note: shed lower-priority job {record['shed']} to make room")
    if not args.wait:
        return 0
    final = client.wait(str(key), timeout_s=args.timeout)
    state = final.get("state")
    print(f"job {key} finished: {state}")
    if state == "done":
        result = client.result(str(key))
        if result.get("kind") == "optimize-front":
            front = result.get("front", [])
            comparison = result.get("comparison", {})
            verdict = comparison.get("dominates_or_matches_baseline")
            print(f"  Pareto front: {len(front)} points over "
                  f"{result.get('evaluations')} evaluated genomes; "
                  f"dominates-or-matches greedy baseline: {verdict}")
            return 0
        table6 = result.get("table6", {})
        print(f"  sequence: {len(result.get('sequence', []))} cycles, "
              f"omega: {result.get('omega_size')}, "
              f"kept: {result.get('kept_assignments')}")
        if isinstance(table6, dict) and table6:
            row = ", ".join(f"{k}={v}" for k, v in sorted(table6.items()))
            print(f"  table6: {row}")
        return 0
    if state == "failed":
        print(f"  error: {final.get('error')}", file=sys.stderr)
    return 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ServeError
    from repro.serve import ServeClient

    client = ServeClient(args.server)
    if args.metrics:
        print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    if args.key is None:
        if args.cancel or args.result or args.job_trace:
            raise ServeError("give a job key to cancel or fetch")
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        for job in jobs:
            spec = job.get("spec", {})
            circuit = spec.get("circuit") if isinstance(spec, dict) else "?"
            priority = spec.get("priority") if isinstance(spec, dict) else "?"
            line = (f"{job.get('key')}  {str(job.get('state')):<10} "
                    f"p{priority} {circuit}")
            if job.get("error"):
                line += f"  ({job['error']})"
            print(line)
        return 0
    if args.cancel:
        record = client.cancel(args.key)
        print(f"cancelled job {record.get('key')}")
        return 0
    if args.result:
        sys.stdout.write(client.result_bytes(args.key).decode("utf-8"))
        return 0
    if args.job_trace:
        sys.stdout.write(client.trace_bytes(args.key).decode("utf-8") + "\n")
        return 0
    if args.watch:
        for event in client.watch(
            args.key, timeout_s=args.watch_timeout
        ):
            attrs = event.get("attrs", {})
            attr_text = ""
            if isinstance(attrs, dict) and attrs:
                attr_text = "  " + " ".join(
                    f"{k}={attrs[k]}" for k in sorted(attrs)
                )
            print(f"[{event.get('seq'):>4}] "
                  f"{event.get('kind')}{attr_text}")
        final = client.job(args.key)
        print(f"job {args.key} finished: {final.get('state')}")
        return 0 if final.get("state") == "done" else 1
    print(_json.dumps(client.job(args.key), indent=2, sort_keys=True))
    return 0


def _cmd_campaign_ingest(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore

    store = CampaignStore(args.store)
    report = None
    for path in args.paths:
        if not path.exists():
            raise FileNotFoundError(f"no such artifact: {path}")
        sub = store.ingest_path(path)
        report = sub if report is None else report.merge(sub)
    assert report is not None  # argparse enforces nargs="+"
    print(f"{args.store}: {report.describe()}")
    for skipped in report.skipped:
        print(f"  skipped (unrecognized): {skipped}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, parse_grid, run_campaign

    store = CampaignStore(args.store)
    grid = parse_grid(args.grid, name=args.name)
    run = run_campaign(
        store,
        grid,
        fraction=args.fraction,
        server_url=args.server,
        timeout_s=args.timeout,
        spec_overrides={
            "tgen_max_len": args.tgen_max_len,
            "compaction_sims": args.compaction_sims,
        },
    )
    mode = f"via {args.server}" if args.server else "locally"
    print(f"campaign {run.campaign}: {run.done}/{run.points} point(s) "
          f"done {mode}")
    print(f"  {run.report.describe()}")
    if run.failed:
        print(f"  failed design point(s): "
              f"{', '.join(map(str, run.failed))}", file=sys.stderr)
        return 1
    return 0


def _cmd_campaign_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign import CampaignStore

    store = CampaignStore(args.store)
    if args.sql is not None:
        rows: list = store.sql(args.sql)
    elif args.view == "summary":
        summary = store.summary()
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
        else:
            for table in sorted(summary):
                print(f"{table:<12} {summary[table]:>6}")
        return 0
    elif args.view == "table6":
        rows = store.query_table6(
            circuit=args.circuit, campaign=args.campaign
        )
    elif args.view == "fronts":
        rows = store.query_fronts(circuit=args.circuit)
    elif args.view == "timings":
        rows = store.query_timings()
    elif args.view == "jobs":
        rows = store.query_jobs()
    elif args.view == "campaigns":
        rows = store.query_campaigns()
    elif args.view == "circuits":
        rows = store.query_circuits()
    else:
        rows = store.query_benchmarks()
    if args.json:
        print(_json.dumps(rows, indent=2, sort_keys=True, default=repr))
        return 0
    if not rows:
        print("no rows")
        return 0
    columns = list(rows[0].keys())
    print("  ".join(columns))
    for row in rows:
        print("  ".join(str(row.get(column, "")) for column in columns))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignStore,
        render_dashboard,
        render_json,
        render_text,
    )

    store = CampaignStore(args.store)
    if args.fmt == "html":
        text = render_dashboard(store)
    elif args.fmt == "json":
        text = render_json(store)
    else:
        text = render_text(store)
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.output} ({len(text)} bytes)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_campaign_suggest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign import CampaignStore, suggest

    store = CampaignStore(args.store)
    outcome = suggest(
        store, args.circuit, target_coverage=args.target_coverage
    )
    if args.json:
        print(_json.dumps(outcome, indent=2, sort_keys=True))
        return 0
    best = outcome["recommendation"]
    met = "reaches" if outcome["target_met"] else "best effort toward"
    print(f"{args.circuit}: l_g={best['l_g']} "  # type: ignore[index]
          f"tgen_max_len={best['tgen_max_len']} "  # type: ignore[index]
          f"{met} coverage {args.target_coverage:g} "
          f"(predicted {best['predicted_coverage']}, "  # type: ignore[index]
          f"~{best['predicted_tpg_gate_equivalents']} "  # type: ignore[index]
          "TPG gate-equivalents)")
    models = outcome.get("models", {})
    if isinstance(models, dict):
        for name in sorted(models):
            model = models[name]
            loco = model.get("loco_residuals", {})
            loco_text = ", ".join(
                f"{c}={v}" for c, v in sorted(loco.items())
            ) or "n/a (single circuit)"
            print(f"  model {name}: {model.get('n_observations')} obs, "
                  f"R²={model.get('r2')}, LOCO |residual| {loco_text}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import collect_results, write_report

    artifacts = collect_results(args.results)
    if not artifacts:
        print(f"no artifacts in {args.results}; run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 1
    path = write_report(args.results, args.output)
    print(f"wrote {path} ({len(artifacts)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
