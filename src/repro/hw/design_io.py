"""Saving and reloading synthesized TPG designs.

A :class:`~repro.hw.tpg.TpgDesign` is more than its netlist: the weight
assignments ``Ω``, the window length ``L_G`` and the optional LFSR
parameters are what make the netlist *verifiable* (and lintable).  The
JSON layout written here keeps all of it together:

.. code-block:: json

    {"format": 1, "kind": "tpg-design", "name": "tpg",
     "l_g": 512, "assignments": [["01", "0", "100", "1"]],
     "output_ports": ["out_G0", "..."], "alphabet": null, "lfsr": null,
     "bench": "# tpg\\nINPUT(reset)\\n..."}

Designs synthesized for a quantized weight alphabet (the optimizer's)
carry it as a list of weight strings; the FSM bank is rebuilt from the
assignments *and* the alphabet on load, exactly as synthesis built it.

The netlist is embedded as canonical ``.bench`` text, so a saved design
round-trips bit-exactly and remains inspectable with any bench tool.
On load the FSM bank is rebuilt deterministically from the assignments
(the same construction synthesis used), which means a hand-edited or
corrupted file does not crash the loader's callers blindly — the lint
subsystem (``repro lint design.json``) cross-checks the reloaded
netlist against the reloaded parameters and reports any drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.circuit.bench import parse_bench_text, write_bench
from repro.core.assignment import WeightAssignment
from repro.core.weight import Weight
from repro.errors import HardwareError
from repro.hw.fsm import build_weight_fsms
from repro.hw.tpg import LfsrSpec, TpgDesign

DESIGN_FORMAT = 1
"""Version of the saved-design layout; bumped on incompatible change."""

DESIGN_KIND = "tpg-design"


def design_to_dict(design: TpgDesign) -> Dict[str, object]:
    """Render ``design`` as a JSON-ready dictionary."""
    return {
        "format": DESIGN_FORMAT,
        "kind": DESIGN_KIND,
        "name": design.circuit.name,
        "l_g": design.l_g,
        "assignments": [
            [str(w) for w in assignment.weights]
            for assignment in design.assignments
        ],
        "output_ports": list(design.output_ports),
        "alphabet": (
            [str(w) for w in design.alphabet]
            if design.alphabet is not None
            else None
        ),
        "lfsr": (
            {"width": design.lfsr.width, "seed": design.lfsr.seed}
            if design.lfsr is not None
            else None
        ),
        "bench": write_bench(design.circuit),
    }


def save_design(design: TpgDesign, path: str | Path) -> None:
    """Write ``design`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2))


def validate_design_dict(payload: object) -> Dict[str, object]:
    """Check the JSON shape of a saved design; return it typed.

    Raises
    ------
    HardwareError
        If the payload is not a saved TPG design, uses an incompatible
        format version, has an ``l_g`` that is not an integer >= 1, or
        has no assignments.
    """
    if not isinstance(payload, dict):
        raise HardwareError("saved design must be a JSON object")
    if payload.get("kind") != DESIGN_KIND:
        raise HardwareError(
            f"not a saved TPG design (kind={payload.get('kind')!r})"
        )
    if payload.get("format") != DESIGN_FORMAT:
        raise HardwareError(
            f"saved design has format {payload.get('format')!r}; "
            f"this build reads format {DESIGN_FORMAT}"
        )
    for field, kind in (
        ("l_g", int),
        ("assignments", list),
        ("output_ports", list),
        ("bench", str),
    ):
        if not isinstance(payload.get(field), kind):
            raise HardwareError(f"saved design field {field!r} is missing "
                                f"or has the wrong type")
    l_g = payload["l_g"]
    if isinstance(l_g, bool) or l_g < 1:
        raise HardwareError(
            f"saved design field 'l_g' must be an integer >= 1, got {l_g!r}"
        )
    if not payload["assignments"]:
        raise HardwareError("saved design field 'assignments' is empty")
    return payload


def design_from_dict(payload: Dict[str, object]) -> TpgDesign:
    """Reconstruct a :class:`TpgDesign` from :func:`design_to_dict` output.

    The circuit is rebuilt from the embedded ``.bench`` text (strict —
    a structurally broken netlist raises; use the lint subsystem to
    diagnose one) and the FSM bank is rebuilt from the assignments.
    """
    payload = validate_design_dict(payload)
    assignments = tuple(
        WeightAssignment.from_strings([str(t) for t in texts])
        for texts in payload["assignments"]  # type: ignore[union-attr]
    )
    lfsr_raw = payload.get("lfsr")
    lfsr = None
    if lfsr_raw is not None:
        if not isinstance(lfsr_raw, dict):
            raise HardwareError("saved design field 'lfsr' must be an object")
        for field in ("width", "seed"):
            value = lfsr_raw.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise HardwareError(
                    f"saved design field 'lfsr.{field}' is missing or is "
                    f"not an integer"
                )
        lfsr = LfsrSpec(width=lfsr_raw["width"], seed=lfsr_raw["seed"])
    alphabet_raw = payload.get("alphabet")
    alphabet = None
    if alphabet_raw is not None:
        if not isinstance(alphabet_raw, list):
            raise HardwareError("saved design field 'alphabet' must be a list")
        alphabet = tuple(Weight.from_string(str(t)) for t in alphabet_raw)
    weights: List[Weight] = []
    for assignment in assignments:
        weights.extend(assignment.deterministic_weights())
    if alphabet is not None:
        weights.extend(alphabet)
    circuit = parse_bench_text(
        str(payload["bench"]), str(payload.get("name", "tpg"))
    )
    return TpgDesign(
        circuit=circuit,
        assignments=assignments,
        l_g=int(payload["l_g"]),  # type: ignore[call-overload]
        fsms=tuple(build_weight_fsms(weights)),
        output_ports=tuple(str(p) for p in payload["output_ports"]),  # type: ignore[union-attr]
        lfsr=lfsr,
        alphabet=alphabet,
    )


def load_design(path: str | Path) -> TpgDesign:
    """Load a saved TPG design from ``path``.

    Raises
    ------
    ReproError
        :class:`HardwareError` on malformed JSON or a wrong payload
        shape; :class:`~repro.errors.BenchParseError` when the embedded
        netlist fails to build (``repro lint`` diagnoses those without
        raising).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        raise HardwareError(f"{path}: not valid JSON: {exc}") from exc
    return design_from_dict(payload)
