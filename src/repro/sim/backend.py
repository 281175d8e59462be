"""Fault-simulation backend selection.

Two backends implement identical semantics:

* ``"python"`` — the pure-Python oracle in :mod:`repro.sim.faultsim`,
  one 64-lane word per fault group.
* ``"vector"`` — the word-packed big-int kernel in
  :mod:`repro.sim.vector`, every fault of a run in one compiled pass.

``"auto"`` resolves to ``"vector"``: the backends are proven
bit-identical by the cross-backend differential suite, so the faster
one is the default everywhere.  Every :class:`~repro.sim.faultsim.FaultSimulator`
entry point honours the selection, including
:meth:`~repro.sim.faultsim.FaultSimulator.output_responses`, which MISR
grading and fault dictionaries run on.  Resolution precedence: explicit
``backend=`` argument > ``RuntimeContext.sim_backend`` >
``REPRO_SIM_BACKEND`` environment variable > ``"auto"``.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import SimulationError

BACKENDS = ("auto", "python", "vector")

_ENV_VAR = "REPRO_SIM_BACKEND"


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend selector, else raise."""
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown sim backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def resolve_backend(requested: Optional[str] = None, runtime=None) -> str:
    """Resolve a backend request to ``"python"`` or ``"vector"``.

    ``"auto"`` (and ``None``) defer to the next source in the
    precedence chain; when every source is ``auto`` the vector backend
    is chosen.
    """
    candidates = [
        requested,
        getattr(runtime, "sim_backend", None) if runtime is not None else None,
        os.environ.get(_ENV_VAR, "").strip() or None,
    ]
    for choice in candidates:
        if choice is None:
            continue
        validate_backend(choice)
        if choice != "auto":
            return choice
    return "vector"
