"""Testability analysis.

* :mod:`repro.analysis.scoap` — SCOAP controllability/observability
  measures (Goldstein), extended to sequential circuits by iterating
  through the flip-flops to a fixpoint.
* :mod:`repro.analysis.cop` — COP signal probabilities and single
  stuck-at detection-probability estimates under random patterns;
  quantitatively explains which faults the LFSR baseline and the
  random-walk generator miss.
* :mod:`repro.analysis.static` — the static implication engine and
  provable-redundancy identifier: value-set constant propagation,
  learned implications, and per-fault untestability certificates,
  reported by ``repro analyze`` and by ``--static-prune`` flows.
"""

from repro.analysis.scoap import ScoapMeasures, compute_scoap
from repro.analysis.cop import CopEstimates, compute_cop, detection_probability
from repro.analysis.static import (
    Certificate,
    RedundancyProver,
    StaticAnalysis,
    analyze,
    check_certificate,
)

__all__ = [
    "ScoapMeasures",
    "compute_scoap",
    "CopEstimates",
    "compute_cop",
    "detection_probability",
    "Certificate",
    "RedundancyProver",
    "StaticAnalysis",
    "analyze",
    "check_certificate",
]
