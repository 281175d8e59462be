"""The aggregate static-analysis pass: one call, one canonical payload.

:func:`analyze` runs the whole stack — value-set fixpoint, structural
analyses, implication learning, per-fault redundancy proofs — and
packages the results as one canonical JSON-ready payload: the payload
the ``repro analyze`` CLI emits, the artifact cache stores
(content-addressed under :func:`repro.runtime.keys.analysis_key`), and
the serve/flow layers build their proved-untestable reports from.

A :class:`StaticAnalysis` wraps the payload with typed accessors; when
rebuilt from a cache hit it re-proves nothing, and faults outside the
analyzed universe are proved on demand against a lazily rebuilt
prover (same inputs, same verdicts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.sim.faults import Fault, fault_name
from repro.analysis.static.certify import (
    Certificate,
    RedundancyProver,
    check_certificate,
)
from repro.analysis.static.implication import ImplicationEngine
from repro.analysis.static.structure import (
    fanout_free_regions,
    observable_nets,
    post_dominators,
)
from repro.analysis.static.valuesets import constants_of, set_to_str
from repro.trace import trace_event, traced

ANALYSIS_FORMAT = 1
"""Version of the analysis payload layout (also part of the cache key)."""

VERDICT_UNTESTABLE = "untestable"
VERDICT_OPEN = "open"


def _literal_key(net: str, value: int) -> str:
    return f"{net}={value}"


@dataclass
class StaticAnalysis:
    """One circuit's static-analysis results.

    ``payload`` is the canonical JSON projection; ``certificates`` maps
    canonical fault names to their rebuilt :class:`Certificate` for the
    proved-untestable subset of the analyzed fault universe.
    """

    circuit: Circuit
    payload: Dict[str, object]
    certificates: Dict[str, Certificate]
    max_frames: Optional[int] = None
    _prover: Optional[RedundancyProver] = field(default=None, repr=False)
    _extra: Dict[str, Optional[Certificate]] = field(
        default_factory=dict, repr=False
    )

    @property
    def n_proved(self) -> int:
        """Faults of the analyzed universe proved untestable."""
        return len(self.certificates)

    def verdict(self, fault: Fault) -> Optional[Certificate]:
        """The fault's certificate, or ``None`` when possibly testable.

        Faults outside the analyzed universe are proved on demand and
        memoized (the prover is deterministic, so the answer matches
        what a direct analysis of that fault would have produced).
        """
        name = fault_name(fault)
        if name in self.certificates:
            return self.certificates[name]
        faults = self.payload.get("faults")
        if isinstance(faults, Mapping) and name in faults:
            return None
        if name not in self._extra:
            if self._prover is None:
                self._prover = RedundancyProver(
                    self.circuit, max_frames=self.max_frames
                )
            self._extra[name] = self._prover.prove(fault)
        return self._extra[name]

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys, two-space indent)."""
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def _build_payload(
    circuit: Circuit,
    faults: Sequence[Fault],
    max_frames: Optional[int],
) -> Dict[str, object]:
    """Run the full pass and project it to the canonical payload."""
    prover = RedundancyProver(circuit, max_frames=max_frames)
    engine: ImplicationEngine = prover.engine
    ffr = fanout_free_regions(circuit)
    dominators = post_dominators(circuit)
    observable = prover.observable
    dead_cones = sorted(net for net in circuit.gates if net not in observable)

    fault_entries: Dict[str, Dict[str, object]] = {}
    by_kind: Dict[str, int] = {}
    for fault in faults:
        certificate = prover.prove(fault)
        entry: Dict[str, object] = {
            "verdict": VERDICT_UNTESTABLE if certificate else VERDICT_OPEN,
            "certificate": certificate.to_dict() if certificate else None,
        }
        fault_entries[fault_name(fault)] = entry
        if certificate is not None:
            by_kind[certificate.kind] = by_kind.get(certificate.kind, 0) + 1

    implications = {
        _literal_key(net, value): [[m, w] for m, w in targets]
        for (net, value), targets in sorted(engine.implications.items())
        if targets
    }
    learned = {
        _literal_key(net, value): [[m, w] for m, w in targets]
        for (net, value), targets in sorted(engine.learned.items())
    }
    return {
        "format": ANALYSIS_FORMAT,
        "circuit": circuit.name,
        "config": {"max_frames": max_frames},
        "frames": prover.frames,
        "value_sets": {
            net: set_to_str(mask) for net, mask in sorted(prover.value_sets.items())
        },
        "constants": constants_of(prover.value_sets),
        "implied_constants": engine.implied_constants(),
        "contradictions": sorted(
            [net, value] for net, value in engine.contradictions
        ),
        "implications": implications,
        "learned": learned,
        "ffr": ffr,
        "dominators": {net: list(doms) for net, doms in dominators.items()},
        "observable": sorted(observable),
        "dead_cones": dead_cones,
        "faults": fault_entries,
        "summary": {
            "n_faults": len(fault_entries),
            "proved_untestable": sum(by_kind.values()),
            "by_kind": dict(sorted(by_kind.items())),
        },
    }


def _certificates_from_payload(
    payload: Mapping[str, object],
) -> Dict[str, Certificate]:
    faults = payload.get("faults")
    if not isinstance(faults, Mapping):
        raise AnalysisError("analysis payload has no fault table")
    out: Dict[str, Certificate] = {}
    for name, entry in faults.items():
        if not isinstance(entry, Mapping):
            raise AnalysisError(f"malformed fault entry for {name!r}")
        cert_raw = entry.get("certificate")
        if cert_raw is not None:
            out[str(name)] = Certificate.from_dict(cert_raw)  # type: ignore[arg-type]
    return out


def analyze(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    runtime: Optional[object] = None,
    max_frames: Optional[int] = None,
) -> StaticAnalysis:
    """Statically analyze ``circuit`` over ``faults``.

    ``faults`` defaults to the equivalence-collapsed universe the flows
    target.  With a runtime, the payload is served from (and stored
    into) the content-addressed artifact cache, and the pass is traced:
    a ``static_analysis`` span plus one deterministic ``analysis``
    summary event, identical whether computed or replayed from cache.
    """
    if faults is None:
        from repro.sim.collapse import collapse_faults

        faults = collapse_faults(circuit)
    faults = list(faults)
    with traced(runtime, "static_analysis", circuit=circuit.name):
        payload: Optional[Dict[str, object]] = None
        key: Optional[str] = None
        cache = getattr(runtime, "cache", None)
        if cache is not None:
            from repro.runtime.keys import (
                analysis_key,
                circuit_fingerprint,
                faults_fingerprint,
            )

            key = analysis_key(
                circuit_fingerprint(circuit),
                faults_fingerprint(faults),
                {"format": ANALYSIS_FORMAT, "max_frames": max_frames},
            )
            cached = cache.get(key)
            if _payload_valid(cached, faults):
                payload = dict(cached)  # type: ignore[arg-type]
                trace_event(runtime, "cache_hit", op="analysis", key=key)
            else:
                stats = getattr(runtime, "stats", None)
                if stats is not None:
                    stats.cache_misses += 1
                trace_event(runtime, "cache_miss", op="analysis", key=key)
        if payload is None:
            payload = _build_payload(circuit, faults, max_frames)
            if cache is not None and key is not None:
                cache.put(key, payload)
        certificates = _certificates_from_payload(payload)
        summary = payload.get("summary", {})
        trace_event(
            runtime,
            "analysis",
            circuit=circuit.name,
            faults=len(faults),
            proved=(
                summary.get("proved_untestable", 0)
                if isinstance(summary, Mapping)
                else 0
            ),
        )
        return StaticAnalysis(
            circuit=circuit,
            payload=payload,
            certificates=certificates,
            max_frames=max_frames,
        )


def _payload_valid(payload: object, faults: Sequence[Fault]) -> bool:
    """Accept a cached payload only if it covers exactly our universe."""
    if not isinstance(payload, Mapping):
        return False
    if payload.get("format") != ANALYSIS_FORMAT:
        return False
    table = payload.get("faults")
    if not isinstance(table, Mapping):
        return False
    return set(table) == {fault_name(f) for f in faults}


__all__ = [
    "ANALYSIS_FORMAT",
    "StaticAnalysis",
    "analyze",
    "check_certificate",
]
