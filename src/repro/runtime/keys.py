"""Stable content-addressed keys for simulation artifacts.

A cached artifact is only valid for the exact ``(circuit, fault set,
stimulus, configuration)`` it was computed from, so each of the four is
reduced to a stable fingerprint and the cache key is a hash over all of
them plus :data:`CACHE_FORMAT` (bump it whenever the payload layout or
the simulation semantics change — old entries are then discarded, never
reinterpreted).

Fingerprint sources:

* **Circuit** — the canonical ``.bench`` rendering
  (:func:`repro.circuit.bench.write_bench` round-trips to an identical
  circuit, so it is a faithful canonical form).
* **Fault set** — the sorted canonical fault names
  (:func:`repro.sim.faults.fault_name`); detection results do not
  depend on fault order.
* **Stimulus** — the ``0``/``1``/``x`` rendering, one row per cycle.
* **Config** — a JSON rendering with sorted keys.

The config's ``kind`` names what the entry holds: one fault simulation
(``run``, ``screen``), one phase of the Pareto search
(``optimize_phase``), or a whole flow phase — ``tgen``, a generated
test sequence (an empty stimulus; the config carries the generation
mode, seed, length cap and the generator's constants, see
:func:`repro.flows.full_flow.generation_key`) and ``compaction``, a
statically compacted one (the stimulus is the input sequence and the
config the budget, see :func:`repro.tgen.compaction.compaction_key`).
No key covers the simulation backend: backends are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Sequence

from repro.circuit.bench import write_bench
from repro.circuit.netlist import Circuit
from repro.sim.faults import Fault, fault_name
from repro.sim.values import Value, to_char

CACHE_FORMAT = 1
"""Version of the cache key/payload format.  Entries written under a
different version are discarded on read."""


def fingerprint(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """Fingerprint of a circuit's canonical ``.bench`` form."""
    return fingerprint(write_bench(circuit))


_TERNARY_CHARS = bytes.maketrans(b"\x00\x01\x02", b"01x")
"""Byte ``v`` → the ASCII character of ternary value ``v``."""


def _row_text(row: Sequence[Value]) -> bytes:
    """One stimulus row as ``0``/``1``/``x`` bytes, through a table."""
    try:
        raw = bytes(tuple(row))
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.translate(None, b"\x00\x01\x02"):
        # Not a row of the ints 0..2: render value by value, which
        # raises to_char's error for a value that is not ternary.
        return "".join(to_char(v) for v in row).encode("ascii")
    return raw.translate(_TERNARY_CHARS)


def stimulus_fingerprint(stimulus: Iterable[Sequence[Value]]) -> str:
    """Fingerprint of a stimulus (one ``0``/``1``/``x`` row per cycle)."""
    rows = b"\n".join(_row_text(row) for row in stimulus)
    return hashlib.sha256(rows).hexdigest()


def faults_fingerprint(faults: Iterable[Fault]) -> str:
    """Order-insensitive fingerprint of a fault set."""
    return fingerprint("\n".join(sorted(fault_name(f) for f in faults)))


def config_fingerprint(config: Mapping[str, object]) -> str:
    """Fingerprint of a configuration mapping (sorted, JSON-rendered)."""
    return fingerprint(json.dumps(config, sort_keys=True, default=repr))


def analysis_key(
    circuit_fp: str,
    faults_fp: str,
    config: Mapping[str, object],
) -> str:
    """The cache key for one static-analysis artifact.

    Static analysis has no stimulus; the key covers the circuit, the
    fault universe the verdicts were computed for, and the analysis
    configuration (format version, unrolling bound, ...).
    """
    return fingerprint(
        "\n".join(
            (
                f"format={CACHE_FORMAT}",
                "static_analysis",
                circuit_fp,
                faults_fp,
                config_fingerprint(config),
            )
        )
    )


def simulation_key(
    circuit_fp: str,
    stimulus_fp: str,
    faults_fp: str,
    config: Mapping[str, object],
) -> str:
    """The cache key for one simulation artifact.

    ``circuit_fp`` / ``stimulus_fp`` are precomputed fingerprints (the
    circuit one is worth memoizing by the caller — see
    :class:`repro.sim.faultsim.FaultSimulator`); ``config`` carries
    everything else that influences the result (artifact kind, line
    recording, simulator class, ...).
    """
    return fingerprint(
        "\n".join(
            (
                f"format={CACHE_FORMAT}",
                circuit_fp,
                stimulus_fp,
                faults_fp,
                config_fingerprint(config),
            )
        )
    )
