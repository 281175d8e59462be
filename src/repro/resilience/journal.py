"""Atomic per-circuit checkpoint journal.

Long multi-circuit sweeps (``repro table6``, the benchmark harness)
journal each circuit's finished result to disk the moment it
completes, so an interrupted run — crash, SIGTERM, power loss — can be
resumed with ``--resume`` and skip everything already done.

Design rules mirror the artifact cache's:

* **Atomic.**  Every record rewrites the whole journal to a temporary
  file and ``os.replace``-s it into place; a reader (or a resumed run)
  can never observe a torn journal.
* **Versioned, never trusted.**  The journal carries a format version;
  an unreadable, unparseable or version-mismatched journal is treated
  as empty (with a warning) — resumption then simply recomputes.
* **Merged, not clobbered.**  A record re-reads the on-disk journal
  and merges before writing, so concurrent sweeps over different
  circuits sharing one cache dir do not erase each other's progress.

The journal lives under the cache root (``<cache>/checkpoints/``), out
of reach of the artifact cache's LRU eviction.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import RuntimeStats
    from repro.trace.span import Tracer

JOURNAL_FORMAT = 1
"""Version of the journal layout.  Journals written under a different
version are ignored (recomputation is always safe)."""


class CheckpointWarning(UserWarning):
    """An existing checkpoint journal was unusable and is ignored."""


def flow_journal_key(circuit_name: str, config: Mapping[str, object]) -> str:
    """The journal key for one (circuit, flow configuration) pair.

    ``config`` is the flow configuration as a mapping (e.g.
    ``dataclasses.asdict(FlowConfig(...))``); any change to it changes
    the key, so resumed sweeps never mix results across configurations.
    """
    from repro.runtime.keys import config_fingerprint

    return f"flow:{circuit_name}:{config_fingerprint(dict(config))[:32]}"


class CheckpointJournal:
    """Key → JSON-payload journal with atomic whole-file rewrites.

    Parameters
    ----------
    path:
        The journal file (parent directories are created on first
        record).
    stats:
        Optional :class:`~repro.runtime.metrics.RuntimeStats` to count
        ``journal_records`` into.
    tracer:
        Optional :class:`~repro.trace.span.Tracer`; successful
        checkpoint writes then fire a ``checkpoint`` trace event.
    """

    def __init__(
        self,
        path: str | Path,
        stats: Optional["RuntimeStats"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.path = Path(path)
        self.stats = stats
        self.tracer = tracer
        self._entries: Optional[Dict[str, dict]] = None

    # -- disk ---------------------------------------------------------------

    def _load(self) -> Dict[str, dict]:
        """The on-disk entries; an unusable journal is empty."""
        try:
            body = json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, ValueError):
            warnings.warn(
                f"checkpoint journal {self.path} is unreadable or corrupt; "
                "ignoring it (completed work will be recomputed)",
                CheckpointWarning,
                stacklevel=3,
            )
            return {}
        if (
            not isinstance(body, dict)
            or body.get("format") != JOURNAL_FORMAT
            or not isinstance(body.get("entries"), dict)
        ):
            warnings.warn(
                f"checkpoint journal {self.path} has an unknown format; "
                "ignoring it (completed work will be recomputed)",
                CheckpointWarning,
                stacklevel=3,
            )
            return {}
        return {
            key: payload
            for key, payload in body["entries"].items()
            if isinstance(key, str) and isinstance(payload, dict)
        }

    def _write(self, entries: Dict[str, dict]) -> bool:
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        body = json.dumps({"format": JOURNAL_FORMAT, "entries": entries})
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(body)
            os.replace(tmp, self.path)
        except OSError:
            # An unusable journal location never fails the sweep; the
            # result is still in hand, only the checkpoint is skipped.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            warnings.warn(
                f"could not write checkpoint journal {self.path}; "
                "this run will not be resumable",
                CheckpointWarning,
                stacklevel=3,
            )
            return False
        return True

    # -- API ----------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The payload checkpointed under ``key``, or None."""
        if self._entries is None:
            self._entries = self._load()
        return self._entries.get(key)

    def record(self, key: str, payload: dict) -> None:
        """Checkpoint ``payload`` under ``key`` (atomic, merged)."""
        merged = self._load()
        if self._entries:
            merged.update(self._entries)
        merged[key] = payload
        self._entries = merged
        if self._write(merged):
            if self.stats is not None:
                self.stats.journal_records += 1
            if self.tracer is not None:
                self.tracer.event("checkpoint", key=key)

    def keys(self) -> List[str]:
        """Checkpointed keys, sorted."""
        if self._entries is None:
            self._entries = self._load()
        return sorted(self._entries)

    def clear(self) -> int:
        """Drop every checkpoint; returns the number removed."""
        removed = len(self.keys())
        self._entries = {}
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass
        return removed

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:
        return f"CheckpointJournal({self.path})"
