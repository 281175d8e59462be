"""Persistent, canonical job results.

A finished job's result is rendered to *canonical bytes* —
:func:`render_result` over :func:`flow_result_payload` — and stored
content-addressed by job key with the same atomic-replace discipline as
the artifact cache.  Canonical bytes are the point: the flow is
deterministic, so the result a client downloads is byte-identical to
rendering a direct :func:`~repro.flows.full_flow.run_full_flow` of the
same spec — whatever server life, worker count or cache temperature
produced it.  The end-to-end service tests assert exactly this.

Alongside each result the store keeps the job's *normalized* trace
(:func:`repro.trace.normalize.normalized_json`): the deterministic
projection of the per-job span tree, also byte-stable across runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.flows.full_flow import FlowResult
from repro.sim.values import to_char

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimize.search import OptimizeResult

RESULT_FORMAT = 1
"""Version of the result payload layout."""


def flow_result_payload(flow: FlowResult) -> Dict[str, object]:
    """The canonical, JSON-ready projection of one flow result.

    Carries everything a campaign client consumes — the Table-6 row,
    the deterministic sequence ``T``, the kept weighted subsequences'
    count and the TPG verification verdict — and nothing
    machine-dependent (no timings, no runtime counters).

    Flows run with ``static_prune`` additionally carry the
    ``proved_untestable`` certificate report; every other key is
    byte-identical to a run of the same spec without it.
    """
    payload: Dict[str, object] = {
        "format": RESULT_FORMAT,
        "circuit": flow.circuit.name,
        "table6": asdict(flow.table6),
        "sequence": [
            "".join(to_char(v) for v in row) for row in flow.sequence
        ],
        "kept_assignments": len(flow.reverse_order.kept),
        "omega_size": len(flow.procedure.omega),
        "tpg_verified": flow.tpg_verified,
    }
    if flow.pruned is not None:
        payload["proved_untestable"] = flow.pruned.to_payload()
    return payload


def optimize_result_payload(result: "OptimizeResult") -> Dict[str, object]:
    """The canonical projection of one optimize-task result.

    Delegates to :func:`repro.optimize.report.optimize_payload` — the
    same payload the CLI's ``--output`` writes — so a downloaded
    ``task="optimize"`` result is byte-identical to a direct
    ``repro optimize`` run of the same spec.
    """
    from repro.optimize.report import optimize_payload

    return optimize_payload(result)


def render_result(payload: Dict[str, object]) -> bytes:
    """Canonical bytes of a result payload (sorted keys, fixed layout)."""
    return (
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")


class ResultStore:
    """Job-key → result/trace bytes, atomic and restart-stable."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}{suffix}"

    def _write(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, path)

    # -- results ------------------------------------------------------------

    def put(self, key: str, payload: Dict[str, object]) -> bytes:
        """Render and persist ``payload``; returns the canonical bytes."""
        data = render_result(payload)
        self._write(self._path(key, ".json"), data)
        return data

    def get_bytes(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key, ".json").read_bytes()
        except OSError:
            return None

    def has(self, key: str) -> bool:
        return self._path(key, ".json").is_file()

    # -- normalized traces --------------------------------------------------

    def put_trace(self, key: str, normalized: str) -> None:
        self._write(
            self._path(key, ".trace.json"), normalized.encode("utf-8")
        )

    def get_trace(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key, ".trace.json").read_bytes()
        except OSError:
            return None
