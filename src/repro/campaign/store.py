"""The campaign warehouse: one sqlite file for every experiment row.

Every artifact the repo produces — flow results, optimizer fronts,
resilience checkpoint journals, serve job records and result payloads,
traces, benchmark JSON — lands in one queryable sqlite store
(stdlib :mod:`sqlite3`, WAL, versioned schema).

Three design rules keep the warehouse trustworthy:

* **Content-addressed, idempotent ingest.**  Every ingested artifact
  is fingerprinted over its canonical JSON (the same machinery as the
  artifact cache, :func:`repro.runtime.keys.config_fingerprint`) and
  inserted with ``INSERT OR IGNORE``; re-ingesting the same file — or
  the same journal twice, or an overlapping serve state dir — is a
  no-op.  Job records are the one exception: they carry a monotone
  ``version``, and the freshest version wins (still idempotent).
* **Deterministic queries.**  Every query orders by content columns,
  never by rowid, so two stores built from the same artifacts in any
  ingest order answer every query identically — the property suite
  proves it, and the byte-identical dashboards depend on it.
* **Derived tables are projections.**  ``runs`` keeps each artifact's
  full canonical payload; ``table6_rows`` / ``timings`` /
  ``front_points`` / ``jobs`` are queryable projections keyed by the
  same fingerprint, so nothing is ever lost to normalization.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CampaignError
from repro.runtime.keys import config_fingerprint

SCHEMA_VERSION = 1
"""``PRAGMA user_version`` of the store layout.  Stores written by a
newer layout are rejected (recompute, never reinterpret)."""

_FINGERPRINT_CHARS = 32

_TABLE6_FIELDS = (
    "circuit",
    "given_len",
    "given_det",
    "n_sequences",
    "n_subsequences",
    "max_length",
    "n_fsms",
    "n_fsm_outputs",
)

_CONFIG_FIELDS = (
    "seed",
    "l_g",
    "tgen_mode",
    "tgen_max_len",
    "compaction_sims",
    "static_prune",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    fingerprint TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    circuit     TEXT NOT NULL DEFAULT '',
    source      TEXT NOT NULL DEFAULT '',
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS table6_rows (
    fingerprint    TEXT PRIMARY KEY,
    circuit        TEXT NOT NULL,
    given_len      INTEGER NOT NULL,
    given_det      INTEGER NOT NULL,
    n_sequences    INTEGER NOT NULL,
    n_subsequences INTEGER NOT NULL,
    max_length     INTEGER NOT NULL,
    n_fsms         INTEGER NOT NULL,
    n_fsm_outputs  INTEGER NOT NULL,
    seed           INTEGER,
    l_g            INTEGER,
    tgen_mode      TEXT,
    tgen_max_len   INTEGER,
    compaction_sims INTEGER,
    static_prune   INTEGER,
    config_fp      TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS timings (
    fingerprint TEXT NOT NULL,
    phase       TEXT NOT NULL,
    seconds     REAL NOT NULL,
    PRIMARY KEY (fingerprint, phase)
);
CREATE TABLE IF NOT EXISTS front_points (
    fingerprint TEXT NOT NULL,
    idx         INTEGER NOT NULL,
    circuit     TEXT NOT NULL,
    coverage    REAL NOT NULL,
    area        REAL NOT NULL,
    length      INTEGER NOT NULL,
    detected    INTEGER NOT NULL,
    PRIMARY KEY (fingerprint, idx)
);
CREATE TABLE IF NOT EXISTS jobs (
    key      TEXT PRIMARY KEY,
    circuit  TEXT NOT NULL,
    task     TEXT NOT NULL,
    state    TEXT NOT NULL,
    version  INTEGER NOT NULL,
    attempts INTEGER NOT NULL,
    record   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign    TEXT NOT NULL,
    point       INTEGER NOT NULL,
    job_key     TEXT NOT NULL DEFAULT '',
    fingerprint TEXT NOT NULL DEFAULT '',
    factors     TEXT NOT NULL,
    PRIMARY KEY (campaign, point)
);
CREATE TABLE IF NOT EXISTS circuits (
    name     TEXT PRIMARY KEY,
    n_pi     INTEGER NOT NULL,
    n_po     INTEGER NOT NULL,
    n_ff     INTEGER NOT NULL,
    n_gates  INTEGER NOT NULL,
    n_nets   INTEGER NOT NULL,
    depth    INTEGER NOT NULL,
    n_faults INTEGER
);
CREATE TABLE IF NOT EXISTS benchmarks (
    fingerprint    TEXT PRIMARY KEY,
    name           TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    wall_time_s    REAL,
    host_cpus      INTEGER,
    git_describe   TEXT NOT NULL DEFAULT ''
);
"""


def payload_fingerprint(payload: Mapping[str, object]) -> str:
    """Content address of one artifact payload (canonical JSON)."""
    return config_fingerprint(dict(payload))[:_FINGERPRINT_CHARS]


@dataclass
class IngestReport:
    """What one ingest pass did, per table."""

    runs_new: int = 0
    runs_dup: int = 0
    table6_rows: int = 0
    timings: int = 0
    front_points: int = 0
    jobs: int = 0
    benchmarks: int = 0
    circuits: int = 0
    skipped: List[str] = field(default_factory=list)

    def merge(self, other: "IngestReport") -> "IngestReport":
        self.runs_new += other.runs_new
        self.runs_dup += other.runs_dup
        self.table6_rows += other.table6_rows
        self.timings += other.timings
        self.front_points += other.front_points
        self.jobs += other.jobs
        self.benchmarks += other.benchmarks
        self.circuits += other.circuits
        self.skipped.extend(other.skipped)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs_new": self.runs_new,
            "runs_dup": self.runs_dup,
            "table6_rows": self.table6_rows,
            "timings": self.timings,
            "front_points": self.front_points,
            "jobs": self.jobs,
            "benchmarks": self.benchmarks,
            "circuits": self.circuits,
            "skipped": list(self.skipped),
        }

    def describe(self) -> str:
        """One human-readable summary line."""
        return (
            f"ingested {self.runs_new} new run(s) "
            f"({self.runs_dup} duplicate(s) skipped): "
            f"{self.table6_rows} table6 row(s), {self.timings} timing(s), "
            f"{self.front_points} front point(s), {self.jobs} job(s), "
            f"{self.benchmarks} benchmark(s), {self.circuits} circuit(s)"
        )


def _canonical(payload: Mapping[str, object]) -> str:
    return json.dumps(dict(payload), sort_keys=True, default=repr)


class CampaignStore:
    """One sqlite campaign warehouse at ``path``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._init_schema()

    # -- connection / schema ------------------------------------------------

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        try:
            conn = sqlite3.connect(str(self.path))
        except sqlite3.Error as exc:
            raise CampaignError(
                f"cannot open campaign store {self.path}: {exc}"
            ) from exc
        try:
            conn.row_factory = sqlite3.Row
            yield conn
            conn.commit()
        except sqlite3.Error as exc:
            conn.rollback()
            raise CampaignError(
                f"campaign store {self.path}: {exc}"
            ) from exc
        finally:
            conn.close()

    def _init_schema(self) -> None:
        parent = self.path.parent
        if parent and not parent.exists():
            try:
                parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CampaignError(
                    f"cannot create store directory {parent}: {exc}"
                ) from exc
        with self._connect() as conn:
            version = int(conn.execute("PRAGMA user_version").fetchone()[0])
            if version > SCHEMA_VERSION:
                raise CampaignError(
                    f"{self.path} uses store schema v{version}; this build "
                    f"understands up to v{SCHEMA_VERSION}"
                )
            # WAL survives in the file; a filesystem that refuses WAL
            # (some network mounts) silently keeps the default journal.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    # -- low-level ingest primitives ----------------------------------------

    def _insert_run(
        self,
        conn: sqlite3.Connection,
        fingerprint: str,
        kind: str,
        circuit: str,
        source: str,
        payload: Mapping[str, object],
        report: IngestReport,
    ) -> bool:
        """Record the raw artifact; False when already present."""
        cursor = conn.execute(
            "INSERT OR IGNORE INTO runs "
            "(fingerprint, kind, circuit, source, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (fingerprint, kind, circuit, source, _canonical(payload)),
        )
        if cursor.rowcount:
            report.runs_new += 1
            return True
        report.runs_dup += 1
        return False

    def _insert_timings(
        self,
        conn: sqlite3.Connection,
        fingerprint: str,
        phases: Mapping[str, object],
        report: IngestReport,
    ) -> None:
        for phase in sorted(phases):
            value = phases[phase]
            if not isinstance(value, (int, float)):
                continue
            cursor = conn.execute(
                "INSERT OR IGNORE INTO timings "
                "(fingerprint, phase, seconds) VALUES (?, ?, ?)",
                (fingerprint, str(phase), float(value)),
            )
            report.timings += cursor.rowcount
    # -- per-format ingest --------------------------------------------------

    def ingest_flow_payload(
        self,
        payload: Mapping[str, object],
        source: str = "",
        config: Optional[Mapping[str, object]] = None,
        timings: Optional[Mapping[str, object]] = None,
    ) -> IngestReport:
        """One flow result payload (the serve result / journal shape).

        ``config`` (job-spec-like knobs) and ``timings`` (phase wall
        seconds) ride along when the caller knows them — a serve job
        record does, a bare result file does not.
        """
        report = IngestReport()
        table6 = payload.get("table6")
        if not isinstance(table6, Mapping):
            raise CampaignError(
                f"flow payload has no table6 section ({source or 'inline'})"
            )
        identity: Dict[str, object] = {"kind": "flow", "payload": dict(payload)}
        if config:
            identity["config"] = {
                k: config[k] for k in sorted(config) if k in _CONFIG_FIELDS
            }
        fingerprint = payload_fingerprint(identity)
        circuit = str(payload.get("circuit", table6.get("circuit", "")))
        with self._connect() as conn:
            if self._insert_run(
                conn, fingerprint, "flow", circuit, source, payload, report
            ):
                try:
                    row = {f: int(table6[f]) for f in _TABLE6_FIELDS[1:]}
                except (KeyError, TypeError, ValueError) as exc:
                    raise CampaignError(
                        f"malformed table6 row in {source or 'payload'}: {exc}"
                    ) from exc
                cfg = dict(config or {})
                conn.execute(
                    "INSERT OR IGNORE INTO table6_rows (fingerprint, circuit,"
                    " given_len, given_det, n_sequences, n_subsequences,"
                    " max_length, n_fsms, n_fsm_outputs, seed, l_g,"
                    " tgen_mode, tgen_max_len, compaction_sims, static_prune,"
                    " config_fp) VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        str(table6.get("circuit", circuit)),
                        row["given_len"],
                        row["given_det"],
                        row["n_sequences"],
                        row["n_subsequences"],
                        row["max_length"],
                        row["n_fsms"],
                        row["n_fsm_outputs"],
                        _maybe_int(cfg.get("seed")),
                        _maybe_int(cfg.get("l_g")),
                        _maybe_str(cfg.get("tgen_mode")),
                        _maybe_int(cfg.get("tgen_max_len")),
                        _maybe_int(cfg.get("compaction_sims")),
                        _maybe_int(cfg.get("static_prune")),
                        str(cfg.get("config_fp", "")),
                    ),
                )
                report.table6_rows += 1
                if timings:
                    self._insert_timings(conn, fingerprint, timings, report)
        self.ensure_circuit(circuit, report=report)
        return report

    def ingest_optimize_payload(
        self, payload: Mapping[str, object], source: str = ""
    ) -> IngestReport:
        """One optimizer front payload (``kind == "optimize-front"``)."""
        report = IngestReport()
        front = payload.get("front")
        if not isinstance(front, Sequence) or isinstance(front, (str, bytes)):
            raise CampaignError(
                f"optimize payload has no front ({source or 'inline'})"
            )
        fingerprint = payload_fingerprint(payload)
        circuit = str(payload.get("circuit", ""))
        with self._connect() as conn:
            if self._insert_run(
                conn, fingerprint, "optimize", circuit, source, payload, report
            ):
                for idx, point in enumerate(front):
                    if not isinstance(point, Mapping):
                        continue
                    cursor = conn.execute(
                        "INSERT OR IGNORE INTO front_points "
                        "(fingerprint, idx, circuit, coverage, area, length,"
                        " detected) VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            fingerprint,
                            idx,
                            circuit,
                            float(point.get("coverage", 0.0)),  # type: ignore[arg-type]
                            float(point.get("area", 0.0)),  # type: ignore[arg-type]
                            int(point.get("length", 0)),  # type: ignore[arg-type]
                            int(point.get("detected", 0)),  # type: ignore[arg-type]
                        ),
                    )
                    report.front_points += cursor.rowcount
        self.ensure_circuit(circuit, report=report)
        return report

    def ingest_job_record(
        self, record: Mapping[str, object], source: str = ""
    ) -> IngestReport:
        """One serve job record (``kind == "job"``); freshest version wins."""
        report = IngestReport()
        spec = record.get("spec")
        if record.get("kind") != "job" or not isinstance(spec, Mapping):
            raise CampaignError(
                f"not a job record ({source or 'inline'})"
            )
        key = str(record.get("key", ""))
        version = _maybe_int(record.get("version")) or 0
        with self._connect() as conn:
            existing = conn.execute(
                "SELECT version FROM jobs WHERE key = ?", (key,)
            ).fetchone()
            if existing is not None and int(existing["version"]) >= version:
                return report
            conn.execute(
                "INSERT OR REPLACE INTO jobs "
                "(key, circuit, task, state, version, attempts, record) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    str(spec.get("circuit", "")),
                    str(spec.get("task", "flow")),
                    str(record.get("state", "")),
                    version,
                    _maybe_int(record.get("attempts")) or 0,
                    _canonical(record),
                ),
            )
            report.jobs += 1
        # Phase timings ride on terminal job stats as "phase:<name>".
        stats = record.get("stats")
        if isinstance(stats, Mapping):
            phases = {
                name[len("phase:"):]: value
                for name, value in stats.items()
                if str(name).startswith("phase:")
                and isinstance(value, (int, float))
            }
            if phases:
                fingerprint = payload_fingerprint(
                    {"kind": "job-timings", "key": key, "version": version}
                )
                with self._connect() as conn:
                    self._insert_timings(conn, fingerprint, phases, report)
        return report

    def ingest_journal(
        self, path: Union[str, Path], source: str = ""
    ) -> IngestReport:
        """A resilience checkpoint journal (flow checkpoints and serve
        queue journals share the layout)."""
        report = IngestReport()
        payload = _read_json(path)
        entries = payload.get("entries")
        if not isinstance(entries, Mapping):
            raise CampaignError(f"{path} is not a checkpoint journal")
        label = source or str(path)
        for key in sorted(entries):
            entry = entries[key]
            if not isinstance(entry, Mapping):
                report.skipped.append(f"{label}:{key}")
                continue
            kind = entry.get("kind")
            if kind == "flow":
                table6 = entry.get("table6")
                timings = entry.get("timings")
                if not isinstance(table6, Mapping):
                    report.skipped.append(f"{label}:{key}")
                    continue
                config_fp = ""
                parts = str(key).split(":")
                if len(parts) == 3 and parts[0] == "flow":
                    config_fp = parts[2]
                report.merge(
                    self.ingest_flow_payload(
                        {
                            "circuit": table6.get("circuit", ""),
                            "table6": dict(table6),
                        },
                        source=f"{label}:{key}",
                        config={"config_fp": config_fp},
                        timings=(
                            timings if isinstance(timings, Mapping) else None
                        ),
                    )
                )
            elif kind == "job":
                report.merge(
                    self.ingest_job_record(entry, source=f"{label}:{key}")
                )
            else:
                report.skipped.append(f"{label}:{key}")
        return report

    def ingest_trace(
        self, path: Union[str, Path], source: str = ""
    ) -> IngestReport:
        """A trace artifact: per-phase wall seconds of its flow spans."""
        from repro.trace.compare import phase_durations
        from repro.trace.export import load_trace

        report = IngestReport()
        root, _events = load_trace(path)
        phases = {
            name: seconds
            for name, seconds in phase_durations(root).items()
            if seconds > 0.0 and name not in ("trace", "job")
        }
        payload = {"kind": "trace", "phases": phases}
        fingerprint = payload_fingerprint(
            {"source": source or str(path), **payload}
        )
        with self._connect() as conn:
            if self._insert_run(
                conn, fingerprint, "trace", "", source or str(path),
                payload, report,
            ):
                self._insert_timings(conn, fingerprint, phases, report)
        return report

    def ingest_benchmark(
        self, payload: Mapping[str, object], source: str = ""
    ) -> IngestReport:
        """One ``benchmarks/results/*.json`` artifact.

        Accepts both the enveloped shape (``schema_version`` +
        ``payload``) and the bare legacy shape; nested optimizer
        payloads (``circuits`` maps) and phase tables are projected
        into their own tables.
        """
        report = IngestReport()
        envelope: Dict[str, object] = {}
        inner = payload
        if "schema_version" in payload and isinstance(
            payload.get("payload"), Mapping
        ):
            envelope = dict(payload)
            inner = payload["payload"]  # type: ignore[assignment]
        if not isinstance(inner, Mapping) or "name" not in inner:
            raise CampaignError(
                f"not a benchmark artifact ({source or 'inline'})"
            )
        fingerprint = payload_fingerprint(payload)
        name = str(inner.get("name", ""))
        with self._connect() as conn:
            if self._insert_run(
                conn, fingerprint, "benchmark", "", source or name,
                payload, report,
            ):
                conn.execute(
                    "INSERT OR IGNORE INTO benchmarks (fingerprint, name,"
                    " schema_version, wall_time_s, host_cpus, git_describe)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        name,
                        _maybe_int(envelope.get("schema_version")) or 0,
                        _maybe_float(inner.get("wall_time_s")),
                        _maybe_int(envelope.get("host_cpus")),
                        str(envelope.get("git_describe", "")),
                    ),
                )
                report.benchmarks += 1
                phases = inner.get("phases")
                if isinstance(phases, Mapping):
                    self._insert_timings(conn, fingerprint, phases, report)
        for stats in _envelope_circuits(envelope):
            self.register_circuit_stats(stats, report=report)
        rows = inner.get("rows")
        if isinstance(rows, Sequence) and not isinstance(rows, (str, bytes)):
            for row in rows:
                if isinstance(row, Mapping) and all(
                    field_name in row for field_name in _TABLE6_FIELDS
                ):
                    report.merge(
                        self.ingest_flow_payload(
                            {
                                "circuit": row.get("circuit", ""),
                                "table6": dict(row),
                            },
                            source=(
                                f"{source or name}:row:{row.get('circuit')}"
                            ),
                        )
                    )
        nested = inner.get("circuits")
        if isinstance(nested, Mapping):
            for circuit_name in sorted(nested):
                sub = nested[circuit_name]
                if (
                    isinstance(sub, Mapping)
                    and sub.get("kind") == "optimize-front"
                ):
                    report.merge(
                        self.ingest_optimize_payload(
                            sub, source=f"{source or name}:{circuit_name}"
                        )
                    )
        return report

    # -- dispatching ingest --------------------------------------------------

    def ingest_path(self, path: Union[str, Path]) -> IngestReport:
        """Ingest one file or directory, sniffing the artifact format.

        Directories recurse over ``*.json`` files (sorted); a serve
        state dir's layout (queue journal, results, traces) is
        just files, so it needs no special casing.
        """
        path = Path(path)
        if path.is_dir():
            report = IngestReport()
            for child in sorted(path.rglob("*.json")):
                if child.name.startswith("."):
                    continue  # atomic-write temp files
                report.merge(self.ingest_path(child))
            return report
        payload = _read_json(path)
        source = str(path)
        if isinstance(payload.get("entries"), Mapping):
            return self.ingest_journal(path, source=source)
        if payload.get("kind") == "job":
            return self.ingest_job_record(payload, source=source)
        if payload.get("kind") == "optimize-front":
            return self.ingest_optimize_payload(payload, source=source)
        if isinstance(payload.get("table6"), Mapping):
            return self.ingest_flow_payload(payload, source=source)
        if "spans" in payload:
            return self.ingest_trace(path, source=source)
        if "schema_version" in payload or "name" in payload:
            return self.ingest_benchmark(payload, source=source)
        report = IngestReport()
        report.skipped.append(source)
        return report

    # -- circuits ------------------------------------------------------------

    def register_circuit_stats(
        self,
        stats: Mapping[str, object],
        n_faults: Optional[int] = None,
        report: Optional[IngestReport] = None,
    ) -> None:
        """Record circuit structural stats (idempotent by name)."""
        name = str(stats.get("name", ""))
        if not name:
            return
        with self._connect() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO circuits "
                "(name, n_pi, n_po, n_ff, n_gates, n_nets, depth, n_faults)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name,
                    _maybe_int(stats.get("n_pi")) or 0,
                    _maybe_int(stats.get("n_po")) or 0,
                    _maybe_int(stats.get("n_ff")) or 0,
                    _maybe_int(stats.get("n_gates")) or 0,
                    _maybe_int(stats.get("n_nets")) or 0,
                    _maybe_int(stats.get("depth")) or 0,
                    n_faults,
                ),
            )
            if cursor.rowcount and report is not None:
                report.circuits += 1
            if n_faults is not None:
                conn.execute(
                    "UPDATE circuits SET n_faults = ? "
                    "WHERE name = ? AND n_faults IS NULL",
                    (n_faults, name),
                )

    def ensure_circuit(
        self, name: str, report: Optional[IngestReport] = None
    ) -> bool:
        """Make sure a library circuit's stats (and collapsed fault
        count) are in the store; False for unknown circuits."""
        if not name:
            return False
        with self._connect() as conn:
            row = conn.execute(
                "SELECT n_faults FROM circuits WHERE name = ?", (name,)
            ).fetchone()
        if row is not None and row["n_faults"] is not None:
            return True
        try:
            from repro.circuit.library import load_circuit
            from repro.circuit.stats import circuit_stats
            from repro.sim.collapse import collapse_faults

            circuit = load_circuit(name)
        except Exception:  # noqa: BLE001 - not a library circuit: fine
            return row is not None
        stats = asdict(circuit_stats(circuit))
        stats.pop("gate_mix", None)
        self.register_circuit_stats(
            stats, n_faults=len(collapse_faults(circuit)), report=report
        )
        return True

    # -- campaigns ------------------------------------------------------------

    def record_campaign_point(
        self,
        campaign: str,
        point: int,
        factors: Mapping[str, object],
        job_key: str = "",
        fingerprint: str = "",
    ) -> None:
        """Bind one design point to its job and ingested run."""
        if not campaign:
            raise CampaignError("campaign name must be non-empty")
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO campaigns "
                "(campaign, point, job_key, fingerprint, factors) "
                "VALUES (?, ?, ?, ?, ?)",
                (campaign, int(point), job_key, fingerprint,
                 _canonical(factors)),
            )

    # -- queries ------------------------------------------------------------

    def _rows(
        self, sql: str, args: Tuple[object, ...] = ()
    ) -> List[Dict[str, object]]:
        with self._connect() as conn:
            return [dict(row) for row in conn.execute(sql, args).fetchall()]

    def query_table6(
        self,
        circuit: Optional[str] = None,
        campaign: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Table-6 rows joined with circuit stats (adds ``coverage``),
        deterministically ordered."""
        sql = (
            "SELECT t.*, c.n_faults, c.n_gates, c.n_ff, c.n_pi,"
            " CAST(t.given_det AS REAL) / NULLIF(c.n_faults, 0) AS coverage"
        )
        args: List[object] = []
        if campaign is not None:
            sql += (
                ", p.campaign AS campaign, p.point AS point"
                " FROM campaigns p JOIN table6_rows t"
                " ON t.fingerprint = p.fingerprint"
                " LEFT JOIN circuits c ON c.name = t.circuit"
                " WHERE p.campaign = ?"
            )
            args.append(campaign)
            if circuit is not None:
                sql += " AND t.circuit = ?"
                args.append(circuit)
            sql += " ORDER BY p.campaign, p.point"
        else:
            sql += (
                " FROM table6_rows t"
                " LEFT JOIN circuits c ON c.name = t.circuit"
            )
            if circuit is not None:
                sql += " WHERE t.circuit = ?"
                args.append(circuit)
            sql += " ORDER BY t.circuit, t.fingerprint"
        return self._rows(sql, tuple(args))

    def query_timings(
        self, phase: Optional[str] = None
    ) -> List[Dict[str, object]]:
        sql = "SELECT fingerprint, phase, seconds FROM timings"
        args: List[object] = []
        if phase is not None:
            sql += " WHERE phase = ?"
            args.append(phase)
        sql += " ORDER BY fingerprint, phase"
        return self._rows(sql, tuple(args))

    def query_fronts(
        self, circuit: Optional[str] = None
    ) -> List[Dict[str, object]]:
        sql = (
            "SELECT fingerprint, idx, circuit, coverage, area, length,"
            " detected FROM front_points"
        )
        args: List[object] = []
        if circuit is not None:
            sql += " WHERE circuit = ?"
            args.append(circuit)
        sql += " ORDER BY circuit, fingerprint, idx"
        return self._rows(sql, tuple(args))

    def query_jobs(
        self, state: Optional[str] = None
    ) -> List[Dict[str, object]]:
        sql = "SELECT key, circuit, task, state, version, attempts FROM jobs"
        args: List[object] = []
        if state is not None:
            sql += " WHERE state = ?"
            args.append(state)
        sql += " ORDER BY circuit, key"
        return self._rows(sql, tuple(args))

    def query_campaigns(
        self, name: Optional[str] = None
    ) -> List[Dict[str, object]]:
        sql = (
            "SELECT campaign, point, job_key, fingerprint, factors"
            " FROM campaigns"
        )
        args: List[object] = []
        if name is not None:
            sql += " WHERE campaign = ?"
            args.append(name)
        sql += " ORDER BY campaign, point"
        rows = self._rows(sql, tuple(args))
        for row in rows:
            try:
                row["factors"] = json.loads(str(row["factors"]))
            except ValueError:
                pass
        return rows

    def query_circuits(self) -> List[Dict[str, object]]:
        return self._rows(
            "SELECT name, n_pi, n_po, n_ff, n_gates, n_nets, depth,"
            " n_faults FROM circuits ORDER BY name"
        )

    def query_benchmarks(self) -> List[Dict[str, object]]:
        return self._rows(
            "SELECT fingerprint, name, schema_version, wall_time_s,"
            " host_cpus, git_describe FROM benchmarks"
            " ORDER BY name, fingerprint"
        )

    def sql(self, query: str) -> List[Dict[str, object]]:
        """Run one read-only SELECT (the power-user escape hatch)."""
        if not query.lstrip().lower().startswith("select"):
            raise CampaignError(
                "only SELECT statements are allowed through sql()"
            )
        with self._connect() as conn:
            conn.execute("PRAGMA query_only = ON")
            try:
                return [
                    dict(row) for row in conn.execute(query).fetchall()
                ]
            except sqlite3.Error as exc:
                raise CampaignError(f"query failed: {exc}") from exc

    def summary(self) -> Dict[str, int]:
        """Row counts per table (the ``query --summary`` view)."""
        out: Dict[str, int] = {}
        with self._connect() as conn:
            for table in (
                "runs",
                "table6_rows",
                "timings",
                "front_points",
                "jobs",
                "campaigns",
                "circuits",
                "benchmarks",
            ):
                out[table] = int(
                    conn.execute(
                        f"SELECT COUNT(*) FROM {table}"  # noqa: S608
                    ).fetchone()[0]
                )
        return out

    def dump(self) -> Dict[str, List[Dict[str, object]]]:
        """Every table, deterministically ordered (the equivalence and
        idempotency property tests compare these)."""
        return {
            "runs": self._rows(
                "SELECT fingerprint, kind, circuit, source, payload"
                " FROM runs ORDER BY fingerprint"
            ),
            "table6_rows": self.query_table6(),
            "timings": self.query_timings(),
            "front_points": self.query_fronts(),
            "jobs": self.query_jobs(),
            "campaigns": self.query_campaigns(),
            "circuits": self.query_circuits(),
            "benchmarks": self.query_benchmarks(),
        }


def _read_json(path: Union[str, Path]) -> Dict[str, object]:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CampaignError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CampaignError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CampaignError(f"{path} is not a JSON object")
    return payload


def _envelope_circuits(
    envelope: Mapping[str, object],
) -> List[Dict[str, object]]:
    circuits = envelope.get("circuits")
    if not isinstance(circuits, Mapping):
        return []
    out: List[Dict[str, object]] = []
    for name in sorted(circuits):
        stats = circuits[name]
        if isinstance(stats, Mapping):
            out.append({"name": name, **{str(k): v for k, v in stats.items()}})
    return out


def _maybe_int(value: object) -> Optional[int]:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    return None


def _maybe_float(value: object) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _maybe_str(value: object) -> Optional[str]:
    return str(value) if isinstance(value, str) else None
